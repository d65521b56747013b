// Package verify performs the analytic performance verification of phase 4
// of the methodology: it checks that a produced mapping really delivers the
// guarantees the mapper claims, independently re-deriving every invariant
// from the raw configuration.
//
// Checked invariants, per use-case configuration:
//
//  1. Structure — every flow has an assignment; its path starts at the
//     source core's NI egress link, crosses contiguous mesh links from the
//     source switch to the destination switch, and ends at the destination
//     core's NI ingress link.
//  2. Bandwidth — the reserved slot count grants at least the flow's
//     bandwidth at the configured frequency, with one start slot per
//     reserved slot, each inside the slot table; group-shared assignments
//     grant the group's maximum.
//  3. Contention freedom — within one configuration (equivalently, one
//     smooth-switching group) no two flows claim the same (link, slot) when
//     slot alignment along paths is applied.
//  4. Latency — the analytic worst case (max slot gap + path length + 1
//     slot periods) meets every flow's constraint.
//  5. Placement — cores sit on valid switches/NIs and NI occupancy respects
//     the per-NI core bound.
//
// Check runs after every mapping the toolkit produces: nocmap refuses to
// emit back-end artifacts on violations, and the mapping service attaches
// the violation list to every response it serves (and caches), so a cached
// answer carries the same verification verdict as the original run.
package verify

import (
	"fmt"

	"nocmap/internal/core"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
)

// Violation describes one failed invariant.
type Violation struct {
	UseCase int
	Pair    traffic.PairKey
	Reason  string
}

func (v Violation) String() string {
	return fmt.Sprintf("use-case %d flow %d->%d: %s", v.UseCase, v.Pair.Src, v.Pair.Dst, v.Reason)
}

// Check validates all invariants and returns every violation found (empty =
// the mapping is sound).
func Check(m *core.Mapping) []Violation {
	var out []Violation
	out = append(out, checkPlacement(m)...)
	for uc := range m.Prep.UseCases {
		out = append(out, checkUseCase(m, uc)...)
	}
	out = append(out, checkGroupSharing(m)...)
	out = append(out, checkContention(m)...)
	return out
}

func checkPlacement(m *core.Mapping) []Violation {
	var out []Violation
	p := m.Params
	niLoad := make(map[int]int)
	for c, s := range m.CoreSwitch {
		ni := m.CoreNI[c]
		if s < 0 {
			if ni >= 0 {
				out = append(out, Violation{Reason: fmt.Sprintf("core %d has NI %d but no switch", c, ni)})
			}
			continue
		}
		if s >= m.Topology.NumSwitches() {
			out = append(out, Violation{Reason: fmt.Sprintf("core %d on invalid switch %d", c, s)})
			continue
		}
		if ni < 0 || ni/p.NIsPerSwitch != s {
			out = append(out, Violation{Reason: fmt.Sprintf("core %d NI %d not on switch %d", c, ni, s)})
			continue
		}
		niLoad[ni]++
	}
	for ni, n := range niLoad {
		if n > p.CoresPerNI {
			out = append(out, Violation{Reason: fmt.Sprintf("NI %d hosts %d cores, capacity %d", ni, n, p.CoresPerNI)})
		}
	}
	return out
}

func checkUseCase(m *core.Mapping, uc int) []Violation {
	var out []Violation
	u := m.Prep.UseCases[uc]
	cfg := m.Configs[uc]
	if cfg == nil {
		return []Violation{{UseCase: uc, Reason: "missing configuration"}}
	}
	bad := func(key traffic.PairKey, format string, args ...interface{}) {
		out = append(out, Violation{UseCase: uc, Pair: key, Reason: fmt.Sprintf(format, args...)})
	}
	meshLinks := m.MeshLinks()
	for _, f := range u.Flows {
		key := f.Key()
		a, ok := cfg.Assignments[key]
		if !ok || a == nil {
			bad(key, "no assignment")
			continue
		}
		// 1. Structure.
		if len(a.Path) < 2 {
			bad(key, "path too short (%d links)", len(a.Path))
			continue
		}
		wantEgress := m.NIEgressLink(m.CoreNI[f.Src])
		wantIngress := m.NIIngressLink(m.CoreNI[f.Dst])
		if a.Path[0] != wantEgress {
			bad(key, "path starts at link %d, want NI egress %d", a.Path[0], wantEgress)
		}
		if a.Path[len(a.Path)-1] != wantIngress {
			bad(key, "path ends at link %d, want NI ingress %d", a.Path[len(a.Path)-1], wantIngress)
		}
		mesh := a.Path[1 : len(a.Path)-1]
		cur := m.CoreSwitch[f.Src]
		okMesh := true
		for _, l := range mesh {
			if l >= meshLinks {
				bad(key, "interior link %d is not a mesh link", l)
				okMesh = false
				break
			}
			link := m.Topology.Link(topology.LinkID(l))
			if int(link.From) != cur {
				bad(key, "mesh path discontinuous at link %d", l)
				okMesh = false
				break
			}
			cur = int(link.To)
		}
		if okMesh && cur != m.CoreSwitch[f.Dst] {
			bad(key, "mesh path ends at switch %d, want %d", cur, m.CoreSwitch[f.Dst])
		}
		// 2. Bandwidth.
		granted := float64(a.SlotCount) * m.Params.SlotBandwidthMBs()
		if granted < f.BandwidthMBs-1e-6 {
			bad(key, "granted %.2f MB/s < required %.2f", granted, f.BandwidthMBs)
		}
		if len(a.Starts) != a.SlotCount {
			bad(key, "slot count %d != starts %d", a.SlotCount, len(a.Starts))
		}
		for _, st := range a.Starts {
			if st < 0 || st >= m.Params.SlotTableSize {
				bad(key, "start slot %d outside the %d-slot table", st, m.Params.SlotTableSize)
			}
		}
		// 4. Latency.
		if f.MaxLatencyNS > 0 {
			budget := m.Params.LatencyBudgetSlots(f.MaxLatencyNS)
			wc := tdma.WorstCaseLatencySlots(a.Starts, len(a.Path), m.Params.SlotTableSize)
			if wc > budget {
				bad(key, "worst-case latency %d slots exceeds budget %d", wc, budget)
			}
		}
	}
	return out
}

// checkGroupSharing verifies that use-cases in one smooth-switching group
// share identical assignments for shared pairs, sized by the group maximum.
func checkGroupSharing(m *core.Mapping) []Violation {
	var out []Violation
	for _, group := range m.Prep.Groups {
		seen := make(map[traffic.PairKey]*core.Assignment)
		maxBW := make(map[traffic.PairKey]float64)
		for _, uc := range group {
			for _, f := range m.Prep.UseCases[uc].Flows {
				key := f.Key()
				a := m.Configs[uc].Assignments[key]
				if prev, ok := seen[key]; ok && prev != a {
					out = append(out, Violation{UseCase: uc, Pair: key,
						Reason: "group members have diverging assignments for a shared pair"})
				}
				seen[key] = a
				if f.BandwidthMBs > maxBW[key] {
					maxBW[key] = f.BandwidthMBs
				}
			}
		}
		for key, a := range seen {
			if a == nil {
				continue
			}
			granted := float64(a.SlotCount) * m.Params.SlotBandwidthMBs()
			if granted < maxBW[key]-1e-6 {
				out = append(out, Violation{Pair: key,
					Reason: fmt.Sprintf("group assignment grants %.2f MB/s < group max %.2f", granted, maxBW[key])})
			}
		}
	}
	return out
}

// checkContention rebuilds the slot tables of every group configuration
// from scratch and reports any (link, slot) claimed twice. The tables are
// one dense links×T owner array, cleared per group; cells outside it —
// link indices or slots a corrupt mapping puts beyond the fabric — go to a
// map instead, so they are judged exactly like in-range cells.
func checkContention(m *core.Mapping) []Violation {
	var out []Violation
	T := m.Params.SlotTableSize
	links := m.TotalLinks()
	// A cell holds 1 + the index in keys of the pair that last claimed it,
	// 0 while unclaimed.
	owner := make([]int32, links*max(T, 0))
	var stray map[[2]int]int32
	walked := make(map[traffic.PairKey]bool)
	var keys []traffic.PairKey
	for gi, group := range m.Prep.Groups {
		clear(owner)
		clear(stray)
		clear(walked)
		keys = keys[:0]
		for _, uc := range group {
			for _, f := range m.Prep.UseCases[uc].Flows {
				key := f.Key()
				if walked[key] {
					continue // shared assignment, already walked
				}
				walked[key] = true
				keys = append(keys, key)
				id := int32(len(keys))
				a := m.Configs[uc].Assignments[key]
				if a == nil {
					continue
				}
				for _, st := range a.Starts {
					for h, link := range a.Path {
						slot := (st + h) % T
						var prev int32
						if link >= 0 && link < links && slot >= 0 && slot < T {
							prev, owner[link*T+slot] = owner[link*T+slot], id
						} else {
							if stray == nil {
								stray = make(map[[2]int]int32)
							}
							cell := [2]int{link, slot}
							prev, stray[cell] = stray[cell], id
						}
						if prev != 0 && prev != id {
							other := keys[prev-1]
							out = append(out, Violation{UseCase: uc, Pair: key,
								Reason: fmt.Sprintf("group %d: link %d slot %d also claimed by %d->%d",
									gi, link, slot, other.Src, other.Dst)})
						}
					}
				}
			}
		}
	}
	return out
}
