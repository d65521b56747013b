// Allocation regression gates: the annealer's move path (PlacementInto +
// TryMove + Undo) must run without heap allocations once the session's
// buffers reach steady state, on every D1-D4 design; one greedy core.Map
// and one Evaluator.Evaluate of D4 must each stay under an allocation
// ceiling; and one whole anneal of D4, run cold, must stay under a byte
// and an allocation ceiling. BenchmarkSessionMove reports the same move
// path with -benchmem, using caller-owned placement buffers.
package nocmap_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/usecase"
)

// swapMove is one swap candidate: cores X and Y exchange seats.
type swapMove struct {
	X, Y int
}

// swapSequence pre-generates a deterministic sequence of swap candidates
// over the attached cores. It returns nil when no swap exists — fewer than
// two attached cores, or every attached core seated on one NI — instead of
// drawing forever.
func swapSequence(seed int64, attached []int, coreNI []int, moves int) []swapMove {
	possible := false
	for _, c := range attached {
		if coreNI[c] != coreNI[attached[0]] {
			possible = true
			break
		}
	}
	if !possible || moves <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []swapMove
	for len(out) < moves {
		x := attached[rng.Intn(len(attached))]
		y := attached[rng.Intn(len(attached))]
		if x == y || coreNI[x] == coreNI[y] {
			continue
		}
		out = append(out, swapMove{x, y})
	}
	return out
}

// TestSwapSequenceDeterministic: the candidate sequence is a pure function
// of the seed, so every gate run scores the same neighbours.
func TestSwapSequenceDeterministic(t *testing.T) {
	attached := []int{0, 1, 2, 3, 4}
	coreNI := []int{0, 1, 2, 3, 4}
	a := swapSequence(9, attached, coreNI, 25)
	b := swapSequence(9, attached, coreNI, 25)
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("wrong lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSwapSequenceNoSwapPossible: with every attached core on one NI (or a
// non-positive move budget) the generator must return nil instead of
// drawing candidates forever.
func TestSwapSequenceNoSwapPossible(t *testing.T) {
	attached := []int{0, 1, 2}
	oneNI := []int{5, 5, 5}
	if seq := swapSequence(1, attached, oneNI, 10); seq != nil {
		t.Errorf("single-NI placement yielded %d moves, want none", len(seq))
	}
	if seq := swapSequence(1, attached, []int{0, 1, 2}, 0); seq != nil {
		t.Errorf("zero move budget yielded %d moves, want none", len(seq))
	}
}

// sessionFixture is one design's ready-to-move session with caller-owned
// placement buffers and a pre-drawn candidate sequence.
type sessionFixture struct {
	sess *core.Session
	seq  []swapMove
	cs   []int
	cn   []int
}

func newSessionFixture(tb testing.TB, design string) *sessionFixture {
	tb.Helper()
	d, err := bench.ByName(design)
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		tb.Fatal(err)
	}
	p := core.DefaultParams()
	base, err := core.Map(prep, d.NumCores(), p)
	if err != nil {
		tb.Fatal(err)
	}
	m := base.Mapping
	var attached []int
	for c, s := range m.CoreSwitch {
		if s >= 0 {
			attached = append(attached, c)
		}
	}
	seq := swapSequence(1, attached, m.CoreNI, 64)
	if len(seq) == 0 {
		tb.Fatalf("%s: no swap candidates", design)
	}
	ev, err := core.NewEvaluator(prep, d.NumCores(), m.Topology, p)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := ev.SessionFrom(base)
	if err != nil {
		tb.Fatal(err)
	}
	return &sessionFixture{
		sess: sess,
		seq:  seq,
		cs:   make([]int, d.NumCores()),
		cn:   make([]int, d.NumCores()),
	}
}

// move scores candidate i and rolls it back, leaving the session on its
// base placement. The whole body is allocation-free at steady state.
func (f *sessionFixture) move(i int) {
	mv := f.seq[i%len(f.seq)]
	f.sess.PlacementInto(f.cs, f.cn)
	f.cs[mv.X], f.cs[mv.Y] = f.cs[mv.Y], f.cs[mv.X]
	f.cn[mv.X], f.cn[mv.Y] = f.cn[mv.Y], f.cn[mv.X]
	if _, err := f.sess.TryMove(f.cs, f.cn, mv.X, mv.Y); err == nil {
		f.sess.Undo()
	}
}

// warmup runs every candidate once so each per-record slot buffer reaches
// the size its worst probe demands; past this point the freelist recycles
// without growth.
func (f *sessionFixture) warmup() {
	for i := range f.seq {
		f.move(i)
	}
}

var allocDesigns = []string{"D1", "D2", "D3", "D4"}

// TestSessionMoveZeroAlloc is the CI gate: after warmup, the session move
// path must average exactly zero allocations per operation on every
// design. Set NOCMAP_SKIP_ALLOC_GATE=1 to skip locally (debug builds,
// coverage instrumentation and some sanitizers allocate behind the
// scenes).
func TestSessionMoveZeroAlloc(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	type row struct {
		design string
		allocs float64
	}
	var rows []row
	failed := false
	for _, design := range allocDesigns {
		f := newSessionFixture(t, design)
		f.warmup()
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			f.move(i)
			i++
		})
		rows = append(rows, row{design, allocs})
		if allocs != 0 {
			failed = true
		}
	}
	if failed {
		var b strings.Builder
		fmt.Fprintf(&b, "session move path allocates; per-design allocs/op:\n")
		fmt.Fprintf(&b, "  %-6s %10s\n", "design", "allocs/op")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-6s %10.2f\n", r.design, r.allocs)
		}
		b.WriteString("  (profile with: go test -run TestSessionMoveZeroAlloc -memprofile mem.out -memprofilerate 1)")
		t.Fatal(b.String())
	}
}

// mapAllocCeiling bounds the allocations of one greedy core.Map of D4: two
// fabrics (1x3 fails, 2x2 maps) plus the result's mapping and
// configurations. The measured count is 568 (go1.24, linux/amd64), since
// the growth steps draw their candidate placements and switch rankings
// from the scratch arena (1113 when each step allocated them); the
// ceiling leaves about 25% headroom for incidental churn while failing
// long before a return to per-step candidate slices, let alone to
// per-reservation allocation (one copy per granted reservation cost 6228,
// the allocating reservation path and the map-based templates 47437).
const mapAllocCeiling = 710

// TestMapAllocs is the greedy allocation gate: the constructive growth loop
// builds the design's templates once, reserves through the non-allocating
// primitives onto a reservation tape, and copies the successful attempt's
// assignments off the tape once. Skipped
// under NOCMAP_SKIP_ALLOC_GATE and coverage instrumentation, like the
// session gate.
func TestMapAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	d, err := bench.D4()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.Map(prep, d.NumCores(), p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("core.Map(D4): %.0f allocs/op (ceiling %d)", allocs, mapAllocCeiling)
	if allocs > mapAllocCeiling {
		t.Fatalf("core.Map(D4) allocates %.0f times per run, ceiling %d", allocs, mapAllocCeiling)
	}
}

// evaluateAllocCeiling bounds the allocations of one Evaluator.Evaluate of
// D4 at its greedy placement, which the fixed pass rejects in group 12
// (the constructive pass routed in another order): the reservations of the
// groups before it stay on the pooled arena's tape, so only the error is
// allocated. The measured count is 6 (go1.24, linux/amd64), where one copy
// per reservation cost 2084. The pooled scratch arena is drawn warm; the
// headroom covers the race detector, under which sync.Pool drops a quarter
// of its items and each refill of the D4 arena costs about 90 allocations:
// averaged over 200 runs, race runs measure 27–37.
const evaluateAllocCeiling = 50

// TestEvaluateAllocs is the fixed-placement allocation gate: a warm
// evaluator reserves each group's pairs on pooled state and allocates only
// the outcome (an accepted placement's assignments are copied off the tape
// once). Skipped under NOCMAP_SKIP_ALLOC_GATE and coverage
// instrumentation, like the other gates.
func TestEvaluateAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	d, err := bench.D4()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	base, err := core.Map(prep, d.NumCores(), p)
	if err != nil {
		t.Fatal(err)
	}
	m := base.Mapping
	ev, err := core.NewEvaluator(prep, d.NumCores(), m.Topology, p)
	if err != nil {
		t.Fatal(err)
	}
	_, verdict := ev.Evaluate(m.CoreSwitch, m.CoreNI)
	allocs := testing.AllocsPerRun(200, func() {
		ev.Evaluate(m.CoreSwitch, m.CoreNI)
	})
	t.Logf("Evaluate(D4 greedy placement): %.0f allocs/op (ceiling %d), verdict %v", allocs, evaluateAllocCeiling, verdict)
	if allocs > evaluateAllocCeiling {
		t.Fatalf("Evaluate(D4 greedy placement) allocates %.0f times per run, ceiling %d", allocs, evaluateAllocCeiling)
	}
}

// Ceilings of one cold 300-iteration anneal of D4 (TestAnnealColdChainAllocs).
// It measures 3,656,272 B in 2,789 allocations (go1.24, linux/amd64): the
// greedy base, the sessions over it and over every restart probe's start,
// and their moves. Session records are carved per session with storage
// fixed by the design, and the anneal scores on the evaluator greedy built.
// When a recycled record grew a T-sized start buffer and the anneal built
// the templates a second time, the same run took 5,242,200 B in 12,389
// allocations. The ceilings leave about 10% headroom.
const (
	coldChainBytesCeiling  = 4_000_000
	coldChainAllocsCeiling = 3_100
)

// TestAnnealColdChainAllocs is the cold-chain allocation gate: one whole
// anneal of D4 with no warm-up, as a request runs it, from the greedy base
// through every session and move. The steady-state gates above never see
// what a session's first moves allocate. Skipped under
// NOCMAP_SKIP_ALLOC_GATE and coverage instrumentation, like the other
// gates, and under the race detector, whose sync.Pool drops a random share
// of the evaluation arenas the restart probes put back.
func TestAnnealColdChainAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled arenas at random")
	}
	d, err := bench.D4()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions()
	opts.Iters = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (search.Anneal{}).Search(context.Background(), prep, d.NumCores(), core.DefaultParams(), opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("anneal(D4, 300 iterations), cold: %d B in %d allocs (ceilings %d B, %d allocs)",
		bytes, allocs, coldChainBytesCeiling, coldChainAllocsCeiling)
	if bytes > coldChainBytesCeiling || allocs > coldChainAllocsCeiling {
		t.Fatalf("cold anneal of D4 allocates %d B in %d allocs, ceilings %d B and %d allocs",
			bytes, allocs, coldChainBytesCeiling, coldChainAllocsCeiling)
	}
}

// BenchmarkSessionMove measures the steady-state session move path with
// caller-owned buffers; run with -benchmem to see the 0 allocs/op that
// TestSessionMoveZeroAlloc enforces.
func BenchmarkSessionMove(b *testing.B) {
	for _, design := range allocDesigns {
		b.Run(design, func(b *testing.B) {
			f := newSessionFixture(b, design)
			f.warmup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.move(i)
			}
		})
	}
}
