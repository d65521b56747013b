package route

import (
	"math"
	"sort"

	"nocmap/internal/tdma"
	"nocmap/internal/topology"
)

// CandidatesReference is Table.CandidatesInto as it was before the
// minimal-path certificate, built from scratch: it always runs the Dijkstra
// least-cost path, enumerates the minimal paths afresh, then scores,
// deduplicates, stably sorts by cost and trims to the candidate cap. It is
// the oracle for TestTableMatchesCandidates and FuzzCandidates. It differs
// from that body in one place, marked "differs": the least-cost path is
// deduplicated whether or not it is empty.
func CandidatesReference(top *topology.Topology, st *tdma.State, src, dst topology.SwitchID, neededSlots int, p CostParams) []Path {
	max := maxCandidates(p)
	type scored struct {
		path Path
		cost float64
	}
	var cands []scored
	var lc Path
	haveLC := false // differs: an empty least-cost path (src == dst) still dedupes
	if path, _, err := LeastCost(top, st, src, dst, neededSlots, p); err == nil {
		if c := PathCost(st, path, neededSlots, p); !math.IsInf(c, 1) {
			lc, haveLC = path, true
			cands = append(cands, scored{path, c})
		}
	}
	for _, m := range MinimalPaths(top, src, dst, 2*max) {
		if haveLC && pathEqual(m, lc) {
			continue
		}
		c := PathCost(st, m, neededSlots, p)
		if math.IsInf(c, 1) {
			continue
		}
		cands = append(cands, scored{m, c})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]Path, len(cands))
	for i, c := range cands {
		out[i] = c.path
	}
	return out
}
