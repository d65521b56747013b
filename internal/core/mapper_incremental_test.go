package core

import (
	"fmt"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// scanNext is the linear selection chooseNext replaced: walk the sorted flow
// list, skip flows of routed pairs, and return the first flow of the best
// tier (or the first flow at all when the mapped preference is off). It
// returns a flow index, -1 when every pair is routed.
func scanNext(m *mapper, routed []bool) int {
	best := [3]int{-1, -1, -1}
	for i, f := range m.flowsTpl {
		if routed[f.pair] {
			continue
		}
		if m.p.DisableMappedPreference {
			return i
		}
		tier := 2
		if m.coreSwitch[f.key.Src] >= 0 {
			tier--
		}
		if m.coreSwitch[f.key.Dst] >= 0 {
			tier--
		}
		if best[tier] < 0 {
			best[tier] = i
		}
	}
	for _, i := range best {
		if i >= 0 {
			return i
		}
	}
	return -1
}

// checkNIRem recounts every per-NI demand sum over the attached cores.
func checkNIRem(t *testing.T, m *mapper, where string) {
	t.Helper()
	for g := range m.niRemOut {
		for ni := range m.niRemOut[g] {
			out, in := 0, 0
			for c, n := range m.coreNI {
				if n == ni {
					out += m.remOut[g][c]
					in += m.remIn[g][c]
				}
			}
			if m.niRemOut[g][ni] != out || m.niRemIn[g][ni] != in {
				t.Fatalf("%s: group %d NI %d sums out %d in %d, recount %d %d",
					where, g, ni, m.niRemOut[g][ni], m.niRemIn[g][ni], out, in)
			}
		}
	}
}

// stepAttempt runs one growth attempt on top a step at a time, checking the
// incremental selection and demand sums after every step (committed or
// rolled back). It reports whether the attempt mapped every pair.
func stepAttempt(t *testing.T, tpl *templates, top *topology.Topology) bool {
	t.Helper()
	ev := tpl.on(top)
	sc := ev.getScratch()
	m := ev.mapperFor(sc)
	defer ev.putScratch(sc)
	routed := make([]bool, len(tpl.pairList))
	for step := 0; ; step++ {
		where := fmt.Sprintf("%s step %d", top, step)
		checkNIRem(t, m, where)
		want, got := scanNext(m, routed), m.chooseNext()
		if want < 0 || got < 0 {
			if (want < 0) != (got < 0) {
				t.Fatalf("%s: chooseNext = pair %d, scan = flow %d", where, got, want)
			}
			return true
		}
		if first := m.planOf[got].allInsts[0]; first != want {
			t.Fatalf("%s: chooseNext drives flow %d (pair %d), scan chose flow %d", where, first, got, want)
		}
		if err := m.placeAndRoute(got); err != nil {
			checkNIRem(t, m, where+" (rolled back)")
			return false
		}
		routed[got] = true
	}
}

// TestGrowthIncrementalState drives Sp/Bot growth loops step by step on mesh
// and torus, with and without the mapped-endpoint preference, and holds the
// tier bitsets and per-NI demand sums to the scans they replaced.
func TestGrowthIncrementalState(t *testing.T) {
	useCases := []int{4, 10, 20, 40}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		useCases, seeds = []int{4, 20}, []int64{1}
	}
	for _, spec := range []func(int, int64) bench.SynthSpec{bench.SpreadSpec, bench.BottleneckSpec} {
		for _, n := range useCases {
			for _, seed := range seeds {
				d, err := bench.Synthetic(spec(n, seed))
				if err != nil {
					t.Fatal(err)
				}
				pr, err := usecase.Prepare(d)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus} {
					for _, noPref := range []bool{false, true} {
						p := DefaultParams()
						p.Topology = topology.Spec{Kind: kind}
						p.DisableMappedPreference = noPref
						t.Run(fmt.Sprintf("%s-s%d/%s/nopref=%v", d.Name, seed, kind, noPref), func(t *testing.T) {
							tpl := newTemplates(pr, d.NumCores(), p)
							for _, dim := range topology.GrowthSequence(p.MaxMeshDim) {
								if dim.Switches()*p.CoresPerSwitch() < len(tpl.active) {
									continue
								}
								top, err := p.Topology.ForDim(dim, p.CoresPerSwitch())
								if err != nil {
									t.Fatal(err)
								}
								if stepAttempt(t, tpl, top) {
									return
								}
							}
						})
					}
				}
			}
		}
	}
}
