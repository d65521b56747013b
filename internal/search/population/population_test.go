package population

import (
	"context"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
)

// engineNames are the three engines this package registers.
var engineNames = []string{"ga", "pso", "abc"}

func fig5(t *testing.T) (*usecase.Prepared, int) {
	t.Helper()
	d := &traffic.Design{
		Name:  "fig5",
		Cores: traffic.MakeCores(4),
		UseCases: []*traffic.UseCase{
			{Name: "use-case-1", Flows: []traffic.Flow{
				{Src: 0, Dst: 1, BandwidthMBs: 10},
				{Src: 1, Dst: 2, BandwidthMBs: 75},
				{Src: 2, Dst: 3, BandwidthMBs: 100},
			}},
			{Name: "use-case-2", Flows: []traffic.Flow{
				{Src: 2, Dst: 3, BandwidthMBs: 42},
				{Src: 0, Dst: 2, BandwidthMBs: 11},
				{Src: 1, Dst: 3, BandwidthMBs: 52},
			}},
		},
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	return prep, d.NumCores()
}

func d1(t *testing.T) (*usecase.Prepared, int) {
	t.Helper()
	d, err := bench.D1()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	return prep, d.NumCores()
}

// testOptions keeps the population runs fast enough for the unit suite.
func testOptions(seed int64) search.Options {
	opts := search.DefaultOptions()
	opts.Seed = seed
	opts.Population = 8
	opts.Generations = 6
	opts.Restarts = 2
	return opts
}

func TestRegistered(t *testing.T) {
	names := search.Names()
	for _, want := range engineNames {
		eng, err := search.New(want)
		if err != nil {
			t.Fatalf("New(%q): %v (registry: %v)", want, err, names)
		}
		if eng.Name() != want {
			t.Fatalf("New(%q).Name() = %q", want, eng.Name())
		}
	}
}

// TestDeterministicVerifiedNeverWorseThanGreedy is the package's core
// contract: for every engine, a fixed seed reproduces the run exactly, the
// result passes full verification, and the cost never exceeds greedy's.
func TestDeterministicVerifiedNeverWorseThanGreedy(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(*testing.T) (*usecase.Prepared, int)
	}{{"fig5", fig5}, {"d1", d1}} {
		prep, n := tc.prep(t)
		p := core.DefaultParams()
		w := search.DefaultCostWeights()
		greedy, err := core.Map(prep, n, p)
		if err != nil {
			t.Fatal(err)
		}
		greedyCost := w.Of(greedy)
		for _, name := range engineNames {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				eng, err := search.New(name)
				if err != nil {
					t.Fatal(err)
				}
				run := func() *core.Result {
					r, err := eng.Search(context.Background(), prep, n, p, testOptions(7))
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				a, b := run(), run()
				if a.Stats != b.Stats || a.Mapping.SwitchCount() != b.Mapping.SwitchCount() {
					t.Fatalf("%s not deterministic: %+v (%d switches) vs %+v (%d switches)",
						name, a.Stats, a.Mapping.SwitchCount(), b.Stats, b.Mapping.SwitchCount())
				}
				for c := range a.Mapping.CoreSwitch {
					if a.Mapping.CoreSwitch[c] != b.Mapping.CoreSwitch[c] ||
						a.Mapping.CoreNI[c] != b.Mapping.CoreNI[c] {
						t.Fatalf("%s placements diverge at core %d", name, c)
					}
				}
				if v := verify.Check(a.Mapping); len(v) > 0 {
					t.Fatalf("%s result fails verification: %v", name, v)
				}
				if c := w.Of(a); c > greedyCost+1e-9 {
					t.Fatalf("%s cost %.3f worse than greedy %.3f", name, c, greedyCost)
				}
			})
		}
	}
}

// TestProgressEvents: every engine must announce its base, report
// improvements with monotonically non-increasing cost, and end with one
// StageDone event for its final result.
func TestProgressEvents(t *testing.T) {
	prep, n := d1(t)
	p := core.DefaultParams()
	for _, name := range engineNames {
		t.Run(name, func(t *testing.T) {
			var events []search.Event
			opts := testOptions(3)
			opts.Progress = func(e search.Event) { events = append(events, e) }
			eng, err := search.New(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Search(context.Background(), prep, n, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) < 2 {
				t.Fatalf("want at least mapped+done events, got %d", len(events))
			}
			if events[0].Stage != search.StageMapped {
				t.Fatalf("first event stage = %q, want mapped", events[0].Stage)
			}
			last := events[len(events)-1]
			if last.Stage != search.StageDone || last.Engine != name {
				t.Fatalf("last event = %+v, want done from %s", last, name)
			}
			if last.Switches != res.Mapping.SwitchCount() {
				t.Fatalf("done event switches %d != result %d", last.Switches, res.Mapping.SwitchCount())
			}
			if last.LowerBound < 1 || last.Gap < 0 {
				t.Fatalf("done event bound/gap malformed: lb=%d gap=%v", last.LowerBound, last.Gap)
			}
			prevCost := events[0].Cost
			for _, e := range events[1:] {
				if e.Stage == search.StageImproved && e.Cost > prevCost+1e-9 {
					t.Fatalf("improvement event cost rose: %.3f -> %.3f", prevCost, e.Cost)
				}
				if e.Stage != search.StageMapped {
					prevCost = e.Cost
				}
			}
		})
	}
}
