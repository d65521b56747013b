// Package traffic models the communication constraints the methodology takes
// as input: cores, directed traffic flows with bandwidth and latency
// constraints, and use-cases (Definition 2 of the paper). It also implements
// the compound-mode combination rule of Section 4: the bandwidth of a flow in
// a parallel mode is the sum of the flows between the same pair of cores
// across the constituent use-cases, and its latency constraint is the
// minimum.
package traffic

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// CoreID identifies a core (IP block) of the SoC. Cores are numbered
// 0..NumCores-1 within a design.
type CoreID int

// Core is an IP block of the SoC that attaches to the NoC through a network
// interface.
type Core struct {
	ID   CoreID
	Name string
}

// Flow is a directed guaranteed-throughput traffic stream between two cores
// within one use-case.
type Flow struct {
	Src CoreID
	Dst CoreID
	// BandwidthMBs is the maximum rate of traffic on the flow in MB/s.
	BandwidthMBs float64
	// MaxLatencyNS is the maximum delay, in nanoseconds, by which a packet of
	// the flow must reach the destination. Zero means unconstrained.
	MaxLatencyNS float64
}

// PairKey identifies a directed (source, destination) core pair.
type PairKey struct {
	Src CoreID
	Dst CoreID
}

// Key returns the flow's directed pair key.
func (f Flow) Key() PairKey { return PairKey{Src: f.Src, Dst: f.Dst} }

// UseCase is one application mode of the SoC: a named set of flows with
// their constraints (the set F_i of Definition 2).
type UseCase struct {
	Name  string
	Flows []Flow
	// Compound marks use-cases synthesized by the pre-processing phase to
	// represent parallel modes of operation.
	Compound bool
	// Parts holds the names of the constituent use-cases when Compound.
	Parts []string
}

// Validate checks a use-case against a design with numCores cores: all
// endpoints in range, no self-flows, positive bandwidth, non-negative
// latency, and no duplicate (src,dst) pairs (per Definition 2 the flows of a
// use-case are the communication between pairs of cores, so a pair appears
// at most once; aggregate duplicates before constructing the use-case).
//
// The verdict is that of checking the flows in order and stopping at the
// first that fails a check or repeats an earlier pair, but no set is
// built: the flows before the first failing one are checked for repeats
// afterwards (see firstRepeat).
func (u *UseCase) Validate(numCores int) error {
	bad, badErr := len(u.Flows), error(nil)
	for i, f := range u.Flows {
		if err := u.checkFlow(i, f, numCores); err != nil {
			bad, badErr = i, err
			break
		}
	}
	if j := firstRepeat(u.Flows[:bad], numCores); j >= 0 {
		return fmt.Errorf("traffic: use-case %q: duplicate flow %d->%d", u.Name, u.Flows[j].Src, u.Flows[j].Dst)
	}
	return badErr
}

// checkFlow checks flow i on its own: endpoints in range, no self-flow,
// positive finite bandwidth and non-negative latency.
func (u *UseCase) checkFlow(i int, f Flow, numCores int) error {
	switch {
	case f.Src < 0 || int(f.Src) >= numCores || f.Dst < 0 || int(f.Dst) >= numCores:
		return fmt.Errorf("traffic: use-case %q flow %d: endpoint out of range [0,%d)", u.Name, i, numCores)
	case f.Src == f.Dst:
		return fmt.Errorf("traffic: use-case %q flow %d: self-flow on core %d", u.Name, i, f.Src)
	case f.BandwidthMBs <= 0 || math.IsNaN(f.BandwidthMBs) || math.IsInf(f.BandwidthMBs, 0):
		return fmt.Errorf("traffic: use-case %q flow %d: bandwidth %v not positive finite", u.Name, i, f.BandwidthMBs)
	case f.MaxLatencyNS < 0 || math.IsNaN(f.MaxLatencyNS):
		return fmt.Errorf("traffic: use-case %q flow %d: latency %v negative", u.Name, i, f.MaxLatencyNS)
	}
	return nil
}

// firstRepeat returns the index of the first flow whose pair an earlier
// flow already has, or -1. Every endpoint must lie in [0, numCores). Up to
// 64 cores every ordered pair has a bit in a stack bitset. Larger designs
// sort the pairs in a stack buffer (a heap one past 128 flows); a repeat,
// which only a rejected use-case has, is then located by one more pass over
// the flows.
func firstRepeat(flows []Flow, numCores int) int {
	if numCores <= 64 {
		var seen [64 * 64 / 64]uint64
		for j, f := range flows {
			b := int(f.Src)*numCores + int(f.Dst)
			if seen[b>>6]&(1<<(b&63)) != 0 {
				return j
			}
			seen[b>>6] |= 1 << (b & 63)
		}
		return -1
	}
	var stack [128]PairKey
	keys := stack[:0]
	if len(flows) > len(stack) {
		keys = make([]PairKey, 0, len(flows))
	}
	for _, f := range flows {
		keys = append(keys, f.Key())
	}
	slices.SortFunc(keys, comparePairs)
	var reps []PairKey // one copy of each repeated pair, in sorted order
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] && (len(reps) == 0 || reps[len(reps)-1] != keys[i]) {
			reps = append(reps, keys[i])
		}
	}
	if len(reps) == 0 {
		return -1
	}
	seen := make([]bool, len(reps))
	for j, f := range flows {
		if r, ok := slices.BinarySearchFunc(reps, f.Key(), comparePairs); ok {
			if seen[r] {
				return j
			}
			seen[r] = true
		}
	}
	panic("traffic: internal: repeated pair not found")
}

// comparePairs orders pair keys by (src, dst).
func comparePairs(a, b PairKey) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// TotalBandwidth returns the sum of the bandwidths of all flows, in MB/s.
func (u *UseCase) TotalBandwidth() float64 {
	var sum float64
	for _, f := range u.Flows {
		sum += f.BandwidthMBs
	}
	return sum
}

// FlowByPair returns the flow between the given directed pair, if present.
func (u *UseCase) FlowByPair(k PairKey) (Flow, bool) {
	for _, f := range u.Flows {
		if f.Key() == k {
			return f, true
		}
	}
	return Flow{}, false
}

// SortFlows orders the use-case's flows by descending bandwidth, breaking
// ties by (src, dst) for determinism.
func (u *UseCase) SortFlows() {
	sort.SliceStable(u.Flows, func(i, j int) bool {
		a, b := u.Flows[i], u.Flows[j]
		if a.BandwidthMBs != b.BandwidthMBs {
			return a.BandwidthMBs > b.BandwidthMBs
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// Clone returns a deep copy of the use-case.
func (u *UseCase) Clone() *UseCase {
	c := &UseCase{Name: u.Name, Compound: u.Compound}
	c.Flows = append([]Flow(nil), u.Flows...)
	c.Parts = append([]string(nil), u.Parts...)
	return c
}

// Combine builds the compound-mode use-case representing the given use-cases
// running in parallel (Section 4): per directed core pair, bandwidth is the
// sum across constituents and the latency constraint is the minimum of the
// constrained latencies (unconstrained flows do not tighten the bound).
func Combine(name string, parts []*UseCase) *UseCase {
	type acc struct {
		bw  float64
		lat float64 // 0 = unconstrained so far
	}
	sum := make(map[PairKey]*acc)
	var order []PairKey
	names := make([]string, 0, len(parts))
	for _, p := range parts {
		names = append(names, p.Name)
		for _, f := range p.Flows {
			k := f.Key()
			a, ok := sum[k]
			if !ok {
				a = &acc{}
				sum[k] = a
				order = append(order, k)
			}
			a.bw += f.BandwidthMBs
			if f.MaxLatencyNS > 0 && (a.lat == 0 || f.MaxLatencyNS < a.lat) {
				a.lat = f.MaxLatencyNS
			}
		}
	}
	// Deterministic flow order: by pair.
	sort.Slice(order, func(i, j int) bool {
		if order[i].Src != order[j].Src {
			return order[i].Src < order[j].Src
		}
		return order[i].Dst < order[j].Dst
	})
	out := &UseCase{Name: name, Compound: true, Parts: names}
	for _, k := range order {
		a := sum[k]
		out.Flows = append(out.Flows, Flow{Src: k.Src, Dst: k.Dst, BandwidthMBs: a.bw, MaxLatencyNS: a.lat})
	}
	return out
}

// Design couples the core list of an SoC with its use-cases; it is the raw
// input (U1..Un of Figure 3) before pre-processing.
type Design struct {
	Name  string
	Cores []Core
	// UseCases are the individual application modes.
	UseCases []*UseCase
	// ParallelSets lists groups of use-case indices that can run in parallel
	// (the PUC input); a compound mode is generated for each set.
	ParallelSets [][]int
	// SmoothPairs lists use-case index pairs requiring smooth switching (the
	// SUC input); both members must share one NoC configuration.
	SmoothPairs [][2]int
	// Topology tags the interconnect family the design targets: "mesh" or
	// "torus". Empty means mesh. The tag participates in Digest, so
	// otherwise identical designs on different fabrics never share a cache
	// key.
	Topology string
}

// NumCores reports the number of cores in the design.
func (d *Design) NumCores() int { return len(d.Cores) }

// Validate checks the design: named, consistent core IDs, valid use-cases,
// and in-range parallel/smooth references.
func (d *Design) Validate() error {
	if len(d.Cores) == 0 {
		return fmt.Errorf("traffic: design %q has no cores", d.Name)
	}
	for i, c := range d.Cores {
		if int(c.ID) != i {
			return fmt.Errorf("traffic: design %q core %d has ID %d (must be dense, in order)", d.Name, i, c.ID)
		}
	}
	if len(d.UseCases) == 0 {
		return fmt.Errorf("traffic: design %q has no use-cases", d.Name)
	}
	names := make(map[string]struct{}, len(d.UseCases))
	for _, u := range d.UseCases {
		if u.Name == "" {
			return fmt.Errorf("traffic: design %q has an unnamed use-case", d.Name)
		}
		if _, dup := names[u.Name]; dup {
			return fmt.Errorf("traffic: design %q: duplicate use-case name %q", d.Name, u.Name)
		}
		names[u.Name] = struct{}{}
		if err := u.Validate(len(d.Cores)); err != nil {
			return err
		}
	}
	for _, set := range d.ParallelSets {
		if len(set) < 2 {
			return fmt.Errorf("traffic: design %q: parallel set %v needs at least two use-cases", d.Name, set)
		}
		seen := make(map[int]struct{}, len(set))
		for _, idx := range set {
			if idx < 0 || idx >= len(d.UseCases) {
				return fmt.Errorf("traffic: design %q: parallel set references use-case %d (have %d)", d.Name, idx, len(d.UseCases))
			}
			if _, dup := seen[idx]; dup {
				return fmt.Errorf("traffic: design %q: parallel set %v repeats use-case %d", d.Name, set, idx)
			}
			seen[idx] = struct{}{}
		}
	}
	for _, p := range d.SmoothPairs {
		for _, idx := range p {
			if idx < 0 || idx >= len(d.UseCases) {
				return fmt.Errorf("traffic: design %q: smooth pair references use-case %d (have %d)", d.Name, idx, len(d.UseCases))
			}
		}
	}
	switch d.Topology {
	case "", "mesh", "torus":
		return nil
	default:
		return fmt.Errorf("traffic: design %q: unknown topology tag %q (want mesh, torus)", d.Name, d.Topology)
	}
}

// MakeCores is a convenience constructor for n anonymous cores with dense IDs.
func MakeCores(n int) []Core {
	cores := make([]Core, n)
	for i := range cores {
		cores[i] = Core{ID: CoreID(i), Name: fmt.Sprintf("core%d", i)}
	}
	return cores
}
