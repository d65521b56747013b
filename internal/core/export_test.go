package core

import (
	"fmt"
	"slices"

	"nocmap/internal/route"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// ComputeStats exposes the one-shot statistics for the external tests'
// cross-checks.
var ComputeStats = computeStats

// computeStats derives summary statistics from a finished mapping's Config
// maps and slot-table states: the reference the evaluator's statsOf is
// checked against.
func computeStats(m *Mapping, states []*tdma.State) Stats {
	var st Stats
	for _, s := range states {
		for l := 0; l < m.TotalLinks(); l++ {
			if u := 1 - float64(s.FreeSlots(l))/float64(s.Slots()); u > st.MaxLinkUtil {
				st.MaxLinkUtil = u
			}
		}
	}
	// Iterate flows in their declared order, not the assignment map's: float
	// summation is order-sensitive at the last ulp, and run-to-run stats of
	// one deterministic engine must be bit-identical.
	var bwHops, bwSum float64
	for uc, cfg := range m.Configs {
		for _, f := range m.Prep.UseCases[uc].Flows {
			a := cfg.Assignments[f.Key()]
			if a == nil {
				continue
			}
			hops := 0
			for _, l := range a.Path {
				if l < m.MeshLinks() {
					hops++
				}
			}
			st.SlotsReserved += a.SlotCount * len(a.Path)
			bwHops += f.BandwidthMBs * float64(hops)
			bwSum += f.BandwidthMBs
		}
	}
	if bwSum > 0 {
		st.AvgMeshHops = bwHops / bwSum
	}
	return st
}

// EvaluateFresh scores one placement on a throwaway Evaluator: the
// from-scratch oracle that shared Evaluators and Sessions are checked
// against.
func EvaluateFresh(prep *usecase.Prepared, numCores int, top *topology.Topology,
	coreSwitch, coreNI []int, p Params) (*Result, error) {
	ev, err := NewEvaluator(prep, numCores, top, p)
	if err != nil {
		return nil, err
	}
	return ev.Evaluate(coreSwitch, coreNI)
}

// ValidatePlacement runs the fixed-placement check on a fresh seat buffer.
func (ev *Evaluator) ValidatePlacement(coreSwitch, coreNI []int) error {
	return ev.validatePlacement(coreSwitch, coreNI, make([]int, ev.numNIs()))
}

// EvaluateReference is the pair-major fixed-placement pass Evaluate's
// group-by-group pass replaced: every pair in pairList order, each reserved
// in its groups in plan order, on fresh slot tables. Evaluate must return
// a DeepEqual result and the same verdict; only its rejection text may
// name another pair.
func (ev *Evaluator) EvaluateReference(coreSwitch, coreNI []int) (*Result, error) {
	if err := ev.ValidatePlacement(coreSwitch, coreNI); err != nil {
		return nil, err
	}
	states := make([]*tdma.State, len(ev.prep.Groups))
	for g := range states {
		st, err := tdma.NewState(ev.totalLinks, ev.p.SlotTableSize)
		if err != nil {
			return nil, err
		}
		states[g] = st
	}
	at := grid[int32](len(states), len(ev.pairList))
	var asn []Assignment
	sc := reserveScratch{route: route.NewScratch()}
	rec := resRecord{start: make([]uint64, tdma.Words(ev.p.SlotTableSize))}
	for pi, key := range ev.pairList {
		plan := &ev.planOf[pi]
		for i, g := range plan.groups {
			if err := ev.reserveSlotsInto(&sc, states[g], coreSwitch, coreNI, key, ev.pairSlots[g][pi], plan.latSlots[i], &rec); err != nil {
				return nil, fmt.Errorf("core: reference: pair %d->%d, group %d: %w", key.Src, key.Dst, g, err)
			}
			asn = append(asn, Assignment{Path: slices.Clone(rec.path), Starts: tdma.AppendStarts(nil, rec.start), SlotCount: int(rec.slots)})
			at[g][pi] = int32(len(asn))
		}
	}
	configs, err := ev.configsOf(at, asn)
	if err != nil {
		return nil, err
	}
	cs, cn := make([]int, ev.numCores), make([]int, ev.numCores)
	for c := range cs {
		cs[c], cn[c] = -1, -1
		if coreSwitch[c] >= 0 {
			cs[c], cn[c] = coreSwitch[c], coreNI[c]
		}
	}
	mapping := &Mapping{Topology: ev.top, Params: ev.p, Prep: ev.prep, CoreSwitch: cs, CoreNI: cn, Configs: configs}
	dim := topology.Dim{Rows: ev.top.Rows, Cols: ev.top.Cols}
	return &Result{Mapping: mapping, Attempts: []Attempt{{Dim: dim}}, Stats: computeStats(mapping, states)}, nil
}

// Move-rejection sentinels, for the session's differential tests.
var (
	ErrNICapacity     = errNICapacity
	ErrSwitchCapacity = errSwitchCapacity
	ErrMoveInfeasible = errMoveInfeasible
)

// NICapacityCheck exposes the NI precheck, which TryMove runs before the
// switch precheck.
func (s *Session) NICapacityCheck(coreNI, moved []int) error {
	return s.niCapacityCheck(coreNI, moved)
}

// SwitchCapacityScan is the switch precheck as a full scan of every pair of
// every group for each switch the move touches: the oracle the maintained
// cross-switch sums are checked against.
func (s *Session) SwitchCapacityScan(coreSwitch, moved []int) error {
	T := s.ev.p.SlotTableSize
	var touched []int
	for _, c := range moved {
		for _, sw := range [2]int{coreSwitch[c], s.cs[c]} {
			if sw >= 0 && !slices.Contains(touched, sw) {
				touched = append(touched, sw)
			}
		}
	}
	for _, sw := range touched {
		limit := s.ev.top.Degree(topology.SwitchID(sw)) * T
		for _, pairs := range s.ev.groupPairs {
			sumOut, sumIn := 0, 0
			for _, pd := range pairs {
				srcS, dstS := coreSwitch[pd.key.Src], coreSwitch[pd.key.Dst]
				if srcS == sw && dstS != sw {
					sumOut += pd.slots
				}
				if dstS == sw && srcS != sw {
					sumIn += pd.slots
				}
			}
			if sumOut > limit || sumIn > limit {
				return errSwitchCapacity
			}
		}
	}
	return nil
}

// CrossSumsError compares the session's maintained cross-switch sums with a
// recomputation from every group's pair list under the session's placement
// (the candidate's while a move is pending).
func (s *Session) CrossSumsError() error {
	numGroups := len(s.ev.prep.Groups)
	out := make([]int, len(s.crossOut))
	in := make([]int, len(s.crossIn))
	for g, pairs := range s.ev.groupPairs {
		for _, pd := range pairs {
			srcS, dstS := s.cs[pd.key.Src], s.cs[pd.key.Dst]
			if srcS >= 0 && srcS != dstS {
				out[srcS*numGroups+g] += pd.slots
			}
			if dstS >= 0 && dstS != srcS {
				in[dstS*numGroups+g] += pd.slots
			}
		}
	}
	for i := range out {
		if s.crossOut[i] != out[i] || s.crossIn[i] != in[i] {
			return fmt.Errorf("switch %d group %d: maintained out/in %d/%d, recomputed %d/%d",
				i/numGroups, i%numGroups, s.crossOut[i], s.crossIn[i], out[i], in[i])
		}
	}
	return nil
}

// PendingRebuilds reports how many groups the pending move re-routed from
// scratch after their delta re-route wedged.
func (s *Session) PendingRebuilds() int { return s.pm.rebuilds }

// SetGroupOrder sets the order in which the session's moves evaluate the
// groups; order must be a permutation of the group indices.
func (s *Session) SetGroupOrder(order []int) { copy(s.order, order) }
