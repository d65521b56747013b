// Package baseline implements the worst-case design method of the paper's
// reference [25] ("Mapping and Configuration Methods for Multi-Use-Case
// Networks on Chips", ASPDAC 2006), which the paper compares against.
//
// Instead of keeping per-use-case resource state, the WC method builds one
// synthetic worst-case use-case that accounts for the worst constraints of
// every flow across all use-cases — per directed core pair, the maximum
// bandwidth and the minimum latency — and designs the NoC for that single
// use-case with the same underlying engine ([25] is also based on [20], so
// both methods share the mapper here, isolating the multi-use-case
// strategy). Because the worst-case use-case demands every pair's peak
// simultaneously, it becomes heavily over-specified as the number and
// variety of use-cases grows.
package baseline

import (
	"sort"

	"nocmap/internal/core"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// WorstCaseName is the name of the generated synthetic use-case.
const WorstCaseName = "worst-case"

// WorstCase builds the synthetic worst-case use-case from a set of
// use-cases: one flow per directed pair occurring anywhere, carrying the
// maximum bandwidth and the minimum (tightest) positive latency constraint
// observed for that pair.
func WorstCase(ucs []*traffic.UseCase) *traffic.UseCase {
	type acc struct {
		bw  float64
		lat float64
	}
	worst := make(map[traffic.PairKey]*acc)
	var order []traffic.PairKey
	for _, u := range ucs {
		for _, f := range u.Flows {
			k := f.Key()
			a, ok := worst[k]
			if !ok {
				a = &acc{}
				worst[k] = a
				order = append(order, k)
			}
			if f.BandwidthMBs > a.bw {
				a.bw = f.BandwidthMBs
			}
			if f.MaxLatencyNS > 0 && (a.lat == 0 || f.MaxLatencyNS < a.lat) {
				a.lat = f.MaxLatencyNS
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Src != order[j].Src {
			return order[i].Src < order[j].Src
		}
		return order[i].Dst < order[j].Dst
	})
	out := &traffic.UseCase{Name: WorstCaseName}
	for _, k := range order {
		a := worst[k]
		out.Flows = append(out.Flows, traffic.Flow{
			Src: k.Src, Dst: k.Dst, BandwidthMBs: a.bw, MaxLatencyNS: a.lat,
		})
	}
	return out
}

// Map designs a NoC with the WC method: compound modes are generated exactly
// as in the proposed methodology (they are real operating modes the design
// must support), the worst-case use-case is synthesized over all of them,
// and the single-use-case mapper runs on the result. The returned mapping
// has one configuration serving every use-case.
func Map(prep *usecase.Prepared, numCores int, p core.Params) (*core.Result, error) {
	return core.Map(usecase.Single(WorstCase(prep.UseCases)), numCores, p)
}
