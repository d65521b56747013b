package search

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
)

// prepared loads one of the D1-D4 SoC stand-ins.
func prepared(t *testing.T, name string) (*usecase.Prepared, int) {
	t.Helper()
	d, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	return prep, d.NumCores()
}

// propertySeeds are pinned seeds for which the speculative annealer is
// known to match or beat the serial chain on every design/topology
// combination below. The guarantee is empirical, not structural: the two
// chains consume their PRNG streams differently after the first batch, so
// an arbitrary seed can end anywhere; these pins detect regressions in the
// speculative machinery itself (selection, replay), which would shift
// whole cohorts of seeds, not one.
var propertySeeds = []int64{1, 3, 4, 6, 7, 9}

// TestSpeculativeNeverWorseThanSerial is the speculation property test:
// for every pinned seed, design and topology, a SpecK=4 run must produce a
// final cost no worse than the SpecK=0 run of the same seed, and its
// result must pass the analytic verifier (an accepted incumbent that
// violates a bandwidth or latency guarantee would surface here).
func TestSpeculativeNeverWorseThanSerial(t *testing.T) {
	seeds := propertySeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		prep, n := prepared(t, name)
		for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus} {
			p := core.DefaultParams()
			p.Topology = topology.Spec{Kind: kind}
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				for _, seed := range seeds {
					run := func(k int) *core.Result {
						opts := DefaultOptions()
						opts.Seed = seed
						opts.SpecK = k
						res, err := (Anneal{}).Search(context.Background(), prep, n, p, opts)
						if err != nil {
							t.Fatalf("seed %d k=%d: %v", seed, k, err)
						}
						return res
					}
					serial, spec := run(0), run(4)
					w := DefaultCostWeights()
					if got, limit := w.Of(spec), w.Of(serial); got > limit+1e-9 {
						t.Errorf("seed %d: speculative cost %.6f worse than serial %.6f",
							seed, got, limit)
					}
					if vs := verify.Check(spec.Mapping); len(vs) > 0 {
						t.Errorf("seed %d: speculative result fails verification: %v", seed, vs[0])
					}
				}
			})
		}
	}
}

// TestSpeculativeDeterministic: a speculative run must depend only on
// (Seed, SpecK, Iters), never on goroutine scheduling. Identical options
// must reproduce the identical stats, placement and counters, for one
// anneal and for a portfolio whose members anneal in speculative batches
// side by side. The counters are the StageDone totals of each annealer,
// keyed by its seed.
func TestSpeculativeDeterministic(t *testing.T) {
	cases := []struct {
		name, design string
		engine       Engine
		runs, slots  int
		seed         int64
		seeds        int
	}{
		{name: "anneal", design: "D1", engine: Anneal{}, runs: 2, seed: 7},
		{name: "portfolio", design: "D4", engine: Portfolio{}, runs: 5, slots: 32, seed: 3, seeds: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prep, n := prepared(t, tc.design)
			p := core.DefaultParams()
			if tc.slots > 0 {
				p.SlotTableSize = tc.slots
			}
			run := func() (*core.Result, map[int64]Counts) {
				opts := DefaultOptions()
				opts.Seed, opts.Seeds, opts.SpecK = tc.seed, tc.seeds, 4
				done := map[int64]Counts{}
				opts.Progress = func(e Event) {
					if e.Stage == StageDone && e.Engine == "anneal" {
						done[e.Seed] = e.Counts
					}
				}
				res, err := tc.engine.Search(context.Background(), prep, n, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res, done
			}
			a, ca := run()
			if len(ca) != max(tc.seeds, 1) {
				t.Fatalf("want %d annealer done events, got %d", max(tc.seeds, 1), len(ca))
			}
			for _, c := range ca {
				if c.Speculated == 0 || c.SpecAccepted == 0 {
					t.Fatalf("speculative run reported no speculation activity: %+v", c)
				}
				if c.Moves != c.Speculated {
					t.Fatalf("every candidate of a speculative run rides a batch: moves %d != speculated %d",
						c.Moves, c.Speculated)
				}
			}
			for r := 1; r < tc.runs; r++ {
				b, cb := run()
				if a.Stats != b.Stats {
					t.Fatalf("run %d: stats differ: %+v vs %+v", r, a.Stats, b.Stats)
				}
				if !slices.Equal(a.Mapping.CoreSwitch, b.Mapping.CoreSwitch) || !slices.Equal(a.Mapping.CoreNI, b.Mapping.CoreNI) {
					t.Fatalf("run %d: placements differ", r)
				}
				if !maps.Equal(ca, cb) {
					t.Fatalf("run %d: counters differ: %+v vs %+v", r, ca, cb)
				}
			}
		})
	}
}

// TestSpeculationCountersSerialZero: a serial run must not report
// speculation activity — the counters gate dashboards that divide by them.
func TestSpeculationCountersSerialZero(t *testing.T) {
	prep, n := prepared(t, "D1")
	opts := DefaultOptions()
	opts.Seed = 1
	var done Counts
	opts.Progress = func(e Event) {
		if e.Stage == StageDone {
			done = e.Counts
		}
	}
	if _, err := (Anneal{}).Search(context.Background(), prep, n, core.DefaultParams(), opts); err != nil {
		t.Fatal(err)
	}
	if done.Speculated != 0 || done.SpecAccepted != 0 {
		t.Fatalf("serial run reported speculation counters: %+v", done)
	}
}

// TestSpeculativeValidateRejectsWidth pins the option bounds: negative and
// absurd widths fail validation before any engine runs.
func TestSpeculativeValidateRejectsWidth(t *testing.T) {
	for _, k := range []int{-1, 65, 1000} {
		opts := DefaultOptions()
		opts.SpecK = k
		if err := opts.Validate(); err == nil {
			t.Errorf("SpecK=%d passed validation", k)
		}
	}
	for _, k := range []int{0, 1, 2, 64} {
		opts := DefaultOptions()
		opts.SpecK = k
		if err := opts.Validate(); err != nil {
			t.Errorf("SpecK=%d rejected: %v", k, err)
		}
	}
}

// TestSpeculativeStress hammers the concurrent machinery, speculative
// batches inside concurrent portfolio members, and is the designated prey
// for `go test -race`: clones evaluate in parallel within each member, the
// members share one evaluator cache, and the serialized progress callback
// funnels every member through one mutex.
func TestSpeculativeStress(t *testing.T) {
	prep, n := prepared(t, "D2")
	p := core.DefaultParams()
	opts := DefaultOptions()
	opts.Seed = 3
	opts.Seeds = 4
	opts.SpecK = 8
	opts.Iters = 64
	var mu sync.Mutex
	improvements := 0
	opts.Progress = func(e Event) {
		mu.Lock()
		if e.Stage == StageImproved {
			improvements++
		}
		mu.Unlock()
	}
	res, err := Portfolio{}.Search(context.Background(), prep, n, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if vs := verify.Check(res.Mapping); len(vs) > 0 {
		t.Fatalf("stressed portfolio result fails verification: %v", vs[0])
	}
}

// TestSpeculativeMidBatchCancellation cancels the context while
// speculative batches are in flight. The run must terminate promptly with
// either a feasible best-so-far or an error — never a panic, deadlock, or
// a corrupted session (a worker observing cancellation mid-batch must not
// touch its session, or the lockstep replay would diverge).
func TestSpeculativeMidBatchCancellation(t *testing.T) {
	prep, n := prepared(t, "D2")
	p := core.DefaultParams()
	for i, delay := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		if delay == 0 {
			cancel()
		} else {
			go func() {
				time.Sleep(delay)
				cancel()
			}()
		}
		opts := DefaultOptions()
		opts.Seed = int64(i + 1)
		opts.SpecK = 8
		opts.Iters = 2000 // long enough that cancellation lands mid-run
		done := make(chan struct{})
		var res *core.Result
		var err error
		go func() {
			res, err = (Anneal{}).Search(ctx, prep, n, p, opts)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("delay %v: cancelled speculative anneal did not terminate", delay)
		}
		cancel()
		if err == nil {
			if res == nil {
				t.Fatalf("delay %v: no error and no result", delay)
			}
			if vs := verify.Check(res.Mapping); len(vs) > 0 {
				t.Fatalf("delay %v: post-cancellation result fails verification: %v", delay, vs[0])
			}
		}
	}
}
