package search

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// fig5 is the paper's two-use-case worked example: small enough that every
// engine finishes in milliseconds.
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

func TestRegistry(t *testing.T) {
	want := []string{"anneal", "greedy", "portfolio"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
		e, err := New(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != want[i] {
			t.Fatalf("New(%q).Name() = %q", want[i], e.Name())
		}
	}
	if _, err := New("tabu"); err == nil {
		t.Fatal("New(tabu) should fail until the engine exists")
	}
}

func TestGreedyMatchesCoreMap(t *testing.T) {
	prep, n := fig5(t)
	p := core.DefaultParams()
	want, err := core.Map(prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Greedy{}.Search(context.Background(), prep, n, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Mapping.SwitchCount() != want.Mapping.SwitchCount() || got.Stats != want.Stats {
		t.Fatalf("greedy engine diverged from core.Map: %+v vs %+v", got.Stats, want.Stats)
	}
}

// TestGreedyStartAdoptsEvaluator: the evaluator cache GreedyStart returns
// already holds the evaluator of the base's fabric — the one the greedy
// pass built, or Options.BaseEvaluator — so no engine builds the design's
// templates a second time; a Base handed over without its evaluator gets
// an empty cache.
func TestGreedyStartAdoptsEvaluator(t *testing.T) {
	prep, n := d1(t)
	p := core.DefaultParams()
	ctx := context.Background()
	base, evals, err := DefaultOptions().GreedyStart(ctx, prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if ev := evals.m[base.Mapping.Topology.String()]; ev == nil || evals.first != ev || ev.Topology() != base.Mapping.Topology {
		t.Errorf("the greedy pass's evaluator of %v is not the cache's donor", base.Mapping.Topology)
	}

	res, ev, err := core.MapWithEvaluator(ctx, prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Base, opts.BaseEvaluator = res, ev
	got, evals, err := opts.GreedyStart(ctx, prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Error("GreedyStart did not return Options.Base")
	}
	if cached, err := evals.For(res.Mapping.Topology); err != nil || cached != ev {
		t.Errorf("cache answers %p, %v for the base's fabric, want Options.BaseEvaluator %p", cached, err, ev)
	}

	opts.BaseEvaluator = nil
	if _, evals, err := opts.GreedyStart(ctx, prep, n, p); err != nil || evals.first != nil {
		t.Errorf("a base without its evaluator got a seeded cache (err %v)", err)
	}
}

// TestAnnealDeterministic: a fixed seed must reproduce the run exactly —
// same placement, same statistics.
func TestAnnealDeterministic(t *testing.T) {
	prep, n := fig5(t)
	p := core.DefaultParams()
	opts := DefaultOptions()
	opts.Seed = 42
	run := func() *core.Result {
		r, err := Anneal{}.Search(context.Background(), prep, n, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("anneal not deterministic under fixed seed: %+v vs %+v", a.Stats, b.Stats)
	}
	for c := range a.Mapping.CoreSwitch {
		if a.Mapping.CoreSwitch[c] != b.Mapping.CoreSwitch[c] || a.Mapping.CoreNI[c] != b.Mapping.CoreNI[c] {
			t.Fatalf("anneal placements diverge at core %d", c)
		}
	}
}

// TestAnnealNeverWorseThanGreedyD1: on the D1 suite the annealer must not
// lose to its own starting point, in switch count or in weighted cost.
func TestAnnealNeverWorseThanGreedyD1(t *testing.T) {
	prep, n := d1(t)
	p := core.DefaultParams()
	opts := DefaultOptions()
	greedy, err := core.Map(prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		opts.Seed = seed
		res, err := Anneal{}.Search(context.Background(), prep, n, p, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Mapping.SwitchCount() > greedy.Mapping.SwitchCount() {
			t.Fatalf("seed %d: anneal used %d switches, greedy %d",
				seed, res.Mapping.SwitchCount(), greedy.Mapping.SwitchCount())
		}
		if got, want := opts.Weights.Of(res), opts.Weights.Of(greedy); got > want+1e-9 {
			t.Fatalf("seed %d: anneal cost %.6f worse than greedy %.6f", seed, got, want)
		}
	}
}

func TestPortfolioDeterministicAndNotWorse(t *testing.T) {
	prep, n := fig5(t)
	p := core.DefaultParams()
	opts := DefaultOptions()
	opts.Seeds = 3
	greedy, err := core.Map(prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *core.Result {
		r, err := Portfolio{}.Search(context.Background(), prep, n, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("portfolio not deterministic under fixed seed: %+v vs %+v", a.Stats, b.Stats)
	}
	if got, want := opts.Weights.Of(a), opts.Weights.Of(greedy); got > want+1e-9 {
		t.Fatalf("portfolio cost %.6f worse than greedy %.6f", got, want)
	}
}

// TestPortfolioCancellation: a context cancelled before the search starts
// must surface promptly as an error, not hang the worker pool.
func TestPortfolioCancellation(t *testing.T) {
	prep, n := d1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Portfolio{}.Search(ctx, prep, n, core.DefaultParams(), DefaultOptions())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled portfolio returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled portfolio did not return")
	}
}

// TestPortfolioBudget: with a tight context deadline the portfolio still
// terminates and, because the greedy base completes before the deadline,
// still produces a feasible result.
func TestPortfolioBudget(t *testing.T) {
	prep, n := d1(t)
	opts := DefaultOptions()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	var res *core.Result
	var err error
	go func() {
		res, err = Portfolio{}.Search(ctx, prep, n, core.DefaultParams(), opts)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("budgeted portfolio did not terminate")
	}
	if err != nil {
		t.Fatalf("budgeted portfolio failed: %v", err)
	}
	if res == nil || res.Mapping == nil {
		t.Fatal("budgeted portfolio returned no mapping")
	}
}

// Every engine must honour the topology spec in core.Params: on a torus
// request large enough to leave the degenerate sizes, the solution fabric
// carries wrap links, and the metaheuristics still never do worse than
// greedy under the shared cost weights.
func TestEnginesExploreTorus(t *testing.T) {
	prep, numCores := fig5(t)
	p := core.DefaultParams()
	p.NIsPerSwitch = 1
	p.CoresPerNI = 1 // 4 cores -> at least 4 switches, so wrap links can exist
	p.MaxMeshDim = 6
	p.Topology = topology.Spec{Kind: topology.KindTorus}
	opts := DefaultOptions()
	opts.Iters = 12
	opts.Seeds = 2

	greedyRes, err := Greedy{}.Search(context.Background(), prep, numCores, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := opts.Weights.Of(greedyRes)
	for _, name := range Names() {
		eng, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Search(context.Background(), prep, numCores, p, opts)
		if err != nil {
			t.Fatalf("%s on torus: %v", name, err)
		}
		top := res.Mapping.Topology
		if top.Kind == topology.KindTorus && (top.Rows < 3 || top.Cols < 3) {
			t.Errorf("%s: degenerate torus %s", name, top)
		}
		if got := opts.Weights.Of(res); got > base+1e-9 {
			t.Errorf("%s on torus scored %v, worse than greedy %v", name, got, base)
		}
	}

}

// TestFeasibleStartShrinkProbeTooSmall is the regression test for the
// seats-index panic: probing a dim with fewer NI seats than attached cores
// must return nil instead of panicking on seats[i]. The probe is the Kit's,
// so this covers every improvement engine (anneal, ga, pso, abc).
func TestFeasibleStartShrinkProbeTooSmall(t *testing.T) {
	prep, n := fig5(t)
	p := core.DefaultParams()
	p.NIsPerSwitch = 1
	p.CoresPerNI = 1 // a 1x1 mesh seats exactly one core
	opts := DefaultOptions()
	opts.Restarts = 2
	k := &Kit{
		NumCores: n, P: p, Opts: opts,
		Rng:   rand.New(rand.NewSource(1)),
		Evals: NewEvalCache(prep, n, p),
	}
	attached := []int{0, 1, 2, 3} // four cores, one seat
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("FeasibleStart panicked on a too-small probe: %v", r)
		}
	}()
	if res := k.FeasibleStart(context.Background(), topology.Dim{Rows: 1, Cols: 1}, attached); res != nil {
		t.Fatalf("FeasibleStart produced a start on a 1-seat mesh for 4 cores: %v", res.Mapping.Topology)
	}
	if k.Counts.Restarts != 0 {
		t.Fatalf("a too-small size cost %d restart probes, want none", k.Counts.Restarts)
	}
}

// fakeResult builds a result with a given switch count and stats for
// exercising the portfolio's winner selection without running engines.
func fakeResult(t *testing.T, switches int, hops float64) *core.Result {
	t.Helper()
	top, err := topology.NewMesh(1, switches, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Result{
		Mapping: &core.Mapping{Topology: top},
		Stats:   core.Stats{AvgMeshHops: hops},
	}
}

// TestPortfolioPickBestTieBreaks pins the documented determinism contract:
// ties break toward the greedy base (order 0), then toward the
// lowest-numbered annealer; errors and nil results are skipped.
func TestPortfolioPickBestTieBreaks(t *testing.T) {
	w := DefaultCostWeights()
	base := fakeResult(t, 4, 2.0)

	// All members tie with the base: the base must win.
	tied := []outcome{
		{order: 2, res: fakeResult(t, 4, 2.0)},
		{order: 1, res: fakeResult(t, 4, 2.0)},
	}
	if got := pickBest(base, tied, w); got != base {
		t.Error("tie with the base did not resolve to the greedy base")
	}

	// Two members strictly better and tied with each other: lowest order wins.
	b1, b2 := fakeResult(t, 3, 2.0), fakeResult(t, 3, 2.0)
	better := []outcome{
		{order: 3, res: b2},
		{order: 1, res: b1},
	}
	if got := pickBest(base, better, w); got != b1 {
		t.Error("tie between annealers did not resolve to the lowest order")
	}

	// A strictly better result beats a lower-ordered worse one.
	best := fakeResult(t, 2, 5.0)
	mixed := []outcome{
		{order: 1, res: fakeResult(t, 3, 1.0)},
		{order: 4, res: best},
	}
	if got := pickBest(base, mixed, w); got != best {
		t.Error("lowest cost did not win over lower order")
	}

	// Errors and nil results never dethrone the base.
	failed := []outcome{
		{order: 1, err: context.Canceled},
		{order: 2, res: nil},
	}
	if got := pickBest(base, failed, w); got != base {
		t.Error("failed members displaced the greedy base")
	}
}

// TestPortfolioZeroSeedsIsGreedy: Seeds=0 degenerates to the pure greedy
// result without deadlocking.
func TestPortfolioZeroSeedsIsGreedy(t *testing.T) {
	prep, n := fig5(t)
	p := core.DefaultParams()
	opts := DefaultOptions()
	opts.Seeds = 0
	res, err := Portfolio{}.Search(context.Background(), prep, n, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := core.Map(prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != greedy.Stats {
		t.Errorf("seeds=0 portfolio returned %+v, want the greedy result %+v", res.Stats, greedy.Stats)
	}
}

// TestAnnealProgressCounts: the annealer's progress events carry cumulative
// move counters — monotone across events, final totals on StageDone, and
// identical across runs with the same seed.
func TestAnnealProgressCounts(t *testing.T) {
	prep, n := d1(t)
	p := core.DefaultParams()
	run := func() []Event {
		var events []Event
		opts := DefaultOptions()
		opts.Seed = 2
		opts.Progress = func(e Event) { events = append(events, e) }
		if _, err := (Anneal{}).Search(context.Background(), prep, n, p, opts); err != nil {
			t.Fatal(err)
		}
		return events
	}
	events := run()

	var prev Counts
	var done *Event
	for i := range events {
		e := events[i]
		if e.Moves < prev.Moves || e.Accepted < prev.Accepted || e.Restarts < prev.Restarts {
			t.Fatalf("counts went backwards at event %d: %+v after %+v", i, e.Counts, prev)
		}
		prev = e.Counts
		if e.Stage == StageDone {
			done = &events[i]
		}
	}
	if done == nil {
		t.Fatal("no StageDone event")
	}
	if done.Moves <= 0 || done.Accepted <= 0 {
		t.Fatalf("final counts %+v should show moves and acceptances", done.Counts)
	}
	if done.Accepted > done.Moves {
		t.Fatalf("accepted %d exceeds moves tried %d", done.Accepted, done.Moves)
	}

	again := run()
	if len(again) != len(events) || again[len(again)-1].Counts != *(&done.Counts) {
		t.Fatalf("counts not reproducible under fixed seed: %+v vs %+v",
			again[len(again)-1].Counts, done.Counts)
	}
}
