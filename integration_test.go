// End-to-end integration tests: the full methodology (pre-processing →
// unified mapping → analytic verification → slot-accurate simulation) on
// every benchmark family, plus cross-cutting properties on randomized
// designs.
package nocmap_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocmap/internal/baseline"
	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/sim"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
)

// TestEndToEndBenchmarks maps every SoC design and a synthetic of each
// class, then re-verifies all invariants analytically and by simulation.
func TestEndToEndBenchmarks(t *testing.T) {
	designs := make(map[string]*traffic.Design)
	for _, n := range []string{"D1", "D2", "D3", "D4"} {
		d, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		designs[n] = d
	}
	sp, err := bench.Synthetic(bench.SpreadSpec(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	designs["Sp-10"] = sp
	bot, err := bench.Synthetic(bench.BottleneckSpec(10, 23))
	if err != nil {
		t.Fatal(err)
	}
	designs["Bot-10"] = bot

	for name, d := range designs {
		d := d
		t.Run(name, func(t *testing.T) {
			prep, err := usecase.Prepare(d)
			if err != nil {
				t.Fatal(err)
			}
			p := core.DefaultParams()
			res, err := core.Map(prep, d.NumCores(), p)
			if err != nil {
				t.Fatalf("Map: %v", err)
			}
			if vs := verify.Check(res.Mapping); len(vs) != 0 {
				t.Fatalf("analytic verification failed: %v", vs[:min(3, len(vs))])
			}
			if problems := sim.VerifyAgainstAnalytic(res.Mapping, 8*p.SlotTableSize); len(problems) != 0 {
				t.Fatalf("simulation contradicts guarantees: %v", problems[:min(3, len(problems))])
			}
			if res.Stats.MaxLinkUtil <= 0 || res.Stats.MaxLinkUtil > 1 {
				t.Errorf("implausible max utilization %v", res.Stats.MaxLinkUtil)
			}
		})
	}
}

// TestCompoundModesNeverShrinkNoC: declaring use-cases parallel adds a
// compound mode whose constraints are strictly stronger, so the resulting
// NoC can only stay equal or grow.
func TestCompoundModesNeverShrinkNoC(t *testing.T) {
	d, err := bench.Synthetic(bench.SpreadSpec(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	prepBase, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Map(prepBase, d.NumCores(), p)
	if err != nil {
		t.Fatal(err)
	}
	d.ParallelSets = [][]int{{0, 1}}
	prepPar, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Map(prepPar, d.NumCores(), p)
	if err != nil {
		t.Fatal(err)
	}
	if par.Mapping.SwitchCount() < base.Mapping.SwitchCount() {
		t.Errorf("parallel modes shrank the NoC: %d < %d",
			par.Mapping.SwitchCount(), base.Mapping.SwitchCount())
	}
}

// TestSmoothSwitchingCostsNothing: grouped use-cases must switch with zero
// reconfiguration cost; ungrouped ones must not.
func TestSmoothSwitchingCostsNothing(t *testing.T) {
	d, err := bench.Synthetic(bench.SpreadSpec(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	d.SmoothPairs = [][2]int{{0, 1}}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(prep, d.NumCores(), core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(res.Mapping)
	if c, err := sim.SwitchCost(res.Mapping, 0, 1, cfg); err != nil || c != 0 {
		t.Errorf("smooth switch cost = %d, %v", c, err)
	}
	if c, err := sim.SwitchCost(res.Mapping, 0, 2, cfg); err != nil || c == 0 {
		t.Errorf("cross-group switch cost = %d, %v; want > 0", c, err)
	}
}

// Property: on random feasible designs, the mapping passes full analytic
// verification, and the WC baseline never yields a smaller NoC than the
// proposed method.
func TestRandomDesignsMapAndVerifyProperty(t *testing.T) {
	p := core.DefaultParams()
	p.MaxMeshDim = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numCores := 4 + rng.Intn(8)
		numUC := 1 + rng.Intn(4)
		d := &traffic.Design{Name: "rand", Cores: traffic.MakeCores(numCores)}
		for u := 0; u < numUC; u++ {
			uc := &traffic.UseCase{Name: "u" + string(rune('a'+u))}
			used := map[traffic.PairKey]bool{}
			for i := 0; i < 3+rng.Intn(12); i++ {
				s, dd := rng.Intn(numCores), rng.Intn(numCores)
				key := traffic.PairKey{Src: traffic.CoreID(s), Dst: traffic.CoreID(dd)}
				if s == dd || used[key] {
					continue
				}
				used[key] = true
				uc.Flows = append(uc.Flows, traffic.Flow{
					Src: key.Src, Dst: key.Dst,
					BandwidthMBs: 5 + rng.Float64()*400,
					MaxLatencyNS: float64(rng.Intn(2)) * (1000 + rng.Float64()*2000),
				})
			}
			if len(uc.Flows) == 0 {
				uc.Flows = append(uc.Flows, traffic.Flow{Src: 0, Dst: 1, BandwidthMBs: 10})
			}
			d.UseCases = append(d.UseCases, uc)
		}
		// Occasionally add smooth pairs.
		if numUC >= 2 && rng.Intn(2) == 0 {
			d.SmoothPairs = [][2]int{{0, 1}}
		}
		prep, err := usecase.Prepare(d)
		if err != nil {
			return false
		}
		ours, err := core.Map(prep, numCores, p)
		if err != nil {
			return true // infeasible is a legitimate outcome; nothing to verify
		}
		if len(verify.Check(ours.Mapping)) != 0 {
			return false
		}
		wc, err := baseline.Map(prep, numCores, p)
		if err != nil {
			return true // WC may fail where per-use-case mapping succeeded
		}
		return wc.Mapping.SwitchCount() >= ours.Mapping.SwitchCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a mapping produced at frequency f can always be re-configured at
// any higher frequency on the same placement (monotone feasibility, the
// assumption behind the DVS/DFS search).
func TestFrequencyMonotoneProperty(t *testing.T) {
	d, err := bench.Synthetic(bench.SpreadSpec(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	res, err := core.Map(prep, d.NumCores(), p)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	for _, f := range []float64{600, 800, 1200, 2000} {
		ev, err := core.NewEvaluator(prep, d.NumCores(), m.Topology, p.WithFrequency(f))
		if err == nil {
			_, err = ev.Evaluate(m.CoreSwitch, m.CoreNI)
		}
		if err != nil {
			t.Errorf("re-configuration at %.0f MHz failed: %v", f, err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
