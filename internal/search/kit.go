package search

import (
	"context"
	"math/rand"
	"runtime"
	"slices"

	"nocmap/internal/core"
	"nocmap/internal/store"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// Improver is an improvement engine's own search from one feasible start:
// it explores the start's fabric and reports incumbents through the Kit.
// attached lists the cores holding an NI seat.
type Improver func(ctx context.Context, start *core.Result, attached []int)

// Improve is the Search body every improvement engine (anneal, and the
// population engines ga, pso and abc) shares. It maps the greedy base — a
// ctx that ends before the base exists is an error, one that ends after it
// degrades to the best result so far — then runs the engine's improver on
// the base fabric and on every smaller fabric a restart probe finds a
// feasible start on, and returns the best result found. By construction
// that result is never worse than greedy's under the configured cost
// weights.
func Improve(ctx context.Context, engine string, prep *usecase.Prepared, numCores int,
	p core.Params, opts Options, newImprover func(*Kit) Improver) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base, evals, err := opts.GreedyStart(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	opts.Emit(engine, StageMapped, base, Counts{})
	k := &Kit{
		NumCores: numCores, P: p, Opts: opts,
		Rng:    rand.New(rand.NewSource(opts.Seed)),
		Evals:  evals,
		engine: engine,
		best:   base, bestCost: opts.Weights.Of(base),
		cs: make([]int, numCores),
		cn: make([]int, numCores),
	}
	k.run(ctx, base, newImprover(k))
	opts.Emit(engine, StageDone, k.best, k.Counts)
	return k.best, nil
}

// Kit is the scaffolding the improvement engines share: the incumbent, the
// seeded PRNG, the evaluator cache, the restart prober over smaller
// fabrics, the seat helpers and the swap/relocate neighbourhood. All
// randomness flows from Rng, so a fixed Options.Seed reproduces the run.
type Kit struct {
	NumCores int
	P        core.Params
	Opts     Options
	Rng      *rand.Rand
	Evals    *EvalCache
	// Counts accumulate the run's search effort; every emitted event
	// carries the totals so far, so observers need no hook into the engine.
	// The kit counts Restarts; engines count Moves and Accepted.
	Counts Counts

	engine   string
	best     *core.Result
	bestCost float64
	// specK > 1 probes restarts in concurrent waves (the annealer's
	// Options.SpecK; the population engines never speculate).
	specK int

	// proposals counts Propose calls, the clock of the cooperative yield.
	proposals int

	// Proposal scratch, reused across the run: the candidate placement, the
	// NI occupancy and the free-seat list. The session's move path
	// allocates nothing, and with these buffers neither does Propose.
	cs, cn  []int
	niLoad  []int
	freeBuf []int
}

// run improves the base, then probes every smaller fabric that could still
// seat the attached cores, largest first, and improves every feasible start
// found there. Sizes at or above the incumbent's switch count are skipped:
// the cost weights make any same-or-larger fabric a guaranteed
// non-improvement.
func (k *Kit) run(ctx context.Context, base *core.Result, improve Improver) {
	attached := attachedCores(base.Mapping.CoreSwitch)
	k.fit(base)
	improve(ctx, base, attached)
	for _, dim := range k.shrinkDims(base, len(attached)) {
		if ctx.Err() != nil {
			return
		}
		if dim.Switches() >= k.best.Mapping.SwitchCount() {
			continue
		}
		start := k.FeasibleStart(ctx, dim, attached)
		if start == nil {
			continue
		}
		k.Consider(start)
		k.fit(start)
		improve(ctx, start, attached)
	}
}

// fit sizes the per-fabric proposal scratch for the start's fabric.
func (k *Kit) fit(start *core.Result) {
	numNIs := start.Mapping.Topology.NumSwitches() * k.P.NIsPerSwitch
	if cap(k.niLoad) < numNIs {
		k.niLoad = make([]int, numNIs)
		k.freeBuf = make([]int, 0, numNIs)
	}
	k.niLoad = k.niLoad[:numNIs]
}

// shrinkDims lists the sizes of the topology family smaller than the base
// with enough core seats, in descending switch count (nearest the base
// size first, where a feasible placement is most likely to exist).
func (k *Kit) shrinkDims(base *core.Result, attached int) []topology.Dim {
	baseSwitches := base.Mapping.SwitchCount()
	var dims []topology.Dim
	for _, d := range topology.GrowthSequence(k.P.MaxMeshDim) {
		if d.Switches() >= baseSwitches {
			continue
		}
		if d.Switches()*k.P.CoresPerSwitch() < attached {
			continue
		}
		dims = append(dims, d)
	}
	slices.Reverse(dims)
	return dims
}

// FeasibleStart probes Options.Restarts seeded random placements of the
// attached cores on the given size of the configured topology family and
// returns the first that configures feasibly, or nil.
func (k *Kit) FeasibleStart(ctx context.Context, dim topology.Dim, attached []int) *core.Result {
	top, err := k.P.Topology.ForDim(dim, k.P.CoresPerSwitch())
	if err != nil {
		return nil
	}
	ev, err := k.Evals.For(top)
	if err != nil {
		return nil
	}
	return k.Probe(ctx, ev, attached, k.Opts.Restarts)
}

// Probe tries up to tries seeded random placements of the attached cores on
// the evaluator's fabric, counting each as a restart, and returns the first
// that configures feasibly. It returns nil when none does, when ctx ends,
// and without a try when the fabric seats fewer cores than are attached.
func (k *Kit) Probe(ctx context.Context, ev *core.Evaluator, attached []int, tries int) *core.Result {
	seats := k.seats(ev)
	if len(attached) > len(seats) {
		return nil
	}
	if k.specK > 1 {
		return k.probeSpec(ctx, ev, seats, attached, tries)
	}
	for r := 0; r < tries; r++ {
		if ctx.Err() != nil {
			return nil
		}
		k.Counts.Restarts++
		if res, err := ev.Evaluate(k.shuffledPlacement(seats, attached)); err == nil {
			return res
		}
	}
	return nil
}

// seats lists the core seats of the evaluator's fabric, one entry per seat
// holding its NI.
func (k *Kit) seats(ev *core.Evaluator) []int {
	numNIs := ev.Topology().NumSwitches() * k.P.NIsPerSwitch
	seats := make([]int, 0, numNIs*k.P.CoresPerNI)
	for ni := 0; ni < numNIs; ni++ {
		for range k.P.CoresPerNI {
			seats = append(seats, ni)
		}
	}
	return seats
}

// shuffledPlacement shuffles seats and seats the attached cores on its
// prefix; the other cores stay unplaced (-1).
func (k *Kit) shuffledPlacement(seats []int, attached []int) (cs, cn []int) {
	k.Rng.Shuffle(len(seats), func(i, j int) { seats[i], seats[j] = seats[j], seats[i] })
	cs = make([]int, k.NumCores)
	cn = make([]int, k.NumCores)
	for i := range cs {
		cs[i], cn[i] = -1, -1
	}
	for i, c := range attached {
		cn[c] = seats[i]
		cs[c] = seats[i] / k.P.NIsPerSwitch
	}
	return cs, cn
}

// Consider makes r the incumbent when it scores strictly better, emitting
// one StageImproved event.
func (k *Kit) Consider(r *core.Result) {
	if c := k.Opts.Weights.Of(r); c < k.bestCost-store.CostEps {
		k.best, k.bestCost = r, c
		k.Opts.Emit(k.engine, StageImproved, r, k.Counts)
	}
}

// ConsiderSession is Consider for the session's committed configuration
// scoring cost; the result is materialized only when it improves.
func (k *Kit) ConsiderSession(sess *core.Session, cost float64) {
	if cost < k.bestCost-store.CostEps {
		k.Consider(sess.Result())
	}
}

// Occupancy counts the cores seated on each NI of the current fabric into
// the kit's scratch and returns it; the next Occupancy, Move or Propose
// overwrites it.
func (k *Kit) Occupancy(coreNI []int) []int {
	return niOccupancyInto(k.niLoad, coreNI)
}

// Move draws one neighbouring placement into cs/cn: with probability 0.7 a
// swap of two attached cores on different NIs, otherwise a relocation of
// one attached core to another NI with a free seat. It returns the moved
// cores (twice the same core for a relocation) and the relocated core's
// original NI (-1 for a swap), and leaves the new placement's occupancy in
// the kit's scratch. ok=false means the draw yielded no move; cs/cn are
// then unchanged.
func (k *Kit) Move(cs, cn []int, attached []int) (moved [2]int, from int, ok bool) {
	niLoad := k.Occupancy(cn)
	if k.Rng.Float64() < 0.7 {
		x := attached[k.Rng.Intn(len(attached))]
		y := attached[k.Rng.Intn(len(attached))]
		if x == y || cn[x] == cn[y] {
			return moved, -1, false
		}
		cs[x], cs[y] = cs[y], cs[x]
		cn[x], cn[y] = cn[y], cn[x]
		return [2]int{x, y}, -1, true
	}
	x := attached[k.Rng.Intn(len(attached))]
	free := freeNIsInto(k.freeBuf[:0], niLoad, cn[x], k.P.CoresPerNI)
	k.freeBuf = free
	if len(free) == 0 {
		return moved, -1, false
	}
	ni := free[k.Rng.Intn(len(free))]
	from = cn[x]
	niLoad[from]--
	niLoad[ni]++
	cn[x] = ni
	cs[x] = ni / k.P.NIsPerSwitch
	return [2]int{x, x}, from, true
}

// yieldStride is the number of proposals between two cooperative yields of
// the move loop. A move is about 50 µs of CPU-bound work, so the loop
// yields about every millisecond, while the runtime preempts a running
// goroutine only about every 10 ms. Without the yield, a goroutine the
// network wakes (a streamed request's admission, an SSE writer) waits on a
// P that two improvement workers keep busy.
const yieldStride = 16

// yield is the move loop's cooperative yield. It reads and writes no
// search state, so it cannot change a result; tests swap it to count.
var yield = runtime.Gosched

// Propose draws one Move of the session's placement and evaluates it
// incrementally. When the configuration phase rejects the candidate — some
// use-case's flows no longer route or fit their slot tables — a randomly
// picked moved core is repaired once (see repair). On ok the move is left
// pending on the session for the caller to Keep or Undo; otherwise the
// session is unchanged. tried reports whether the draw yielded a move, so
// a TryMove ran. Every yieldStride-th call first yields the processor.
func (k *Kit) Propose(sess *core.Session, attached []int) (stats core.Stats, tried, ok bool) {
	k.proposals++
	if k.proposals%yieldStride == 0 {
		yield()
	}
	sess.PlacementInto(k.cs, k.cn)
	moved, from, ok := k.Move(k.cs, k.cn, attached)
	if !ok {
		return core.Stats{}, false, false
	}
	stats, err := sess.TryMove(k.cs, k.cn, moved[0], moved[1])
	if err == nil {
		return stats, true, true
	}
	stats, ok = k.repair(sess, k.cs, k.cn, k.niLoad, moved, moved[k.Rng.Intn(2)], from)
	return stats, true, ok
}

// repair relocates core x, one of the moved cores of the rejected
// candidate cs/cn (whose NI occupancy is niLoad), to the least-loaded NI
// with a free seat and retries the move on the session. The target is
// neither x's NI nor from, a relocated core's original NI: repairing back
// there would reproduce the session's placement. repair draws no
// randomness and writes only its arguments, so speculative workers call it
// concurrently.
func (k *Kit) repair(sess *core.Session, cs, cn, niLoad []int, moved [2]int, x, from int) (core.Stats, bool) {
	ni := EmptiestNI(niLoad, cn[x], from, k.P.CoresPerNI)
	if ni < 0 {
		return core.Stats{}, false
	}
	cn[x] = ni
	cs[x] = ni / k.P.NIsPerSwitch
	stats, err := sess.TryMove(cs, cn, moved[0], moved[1])
	return stats, err == nil
}

// attachedCores lists the cores with an NI seat.
func attachedCores(coreSwitch []int) []int {
	var out []int
	for c, s := range coreSwitch {
		if s >= 0 {
			out = append(out, c)
		}
	}
	return out
}

// niOccupancyInto counts the cores seated on each NI into load, which fixes
// the NI count.
func niOccupancyInto(load []int, coreNI []int) []int {
	clear(load)
	for _, ni := range coreNI {
		if ni >= 0 {
			load[ni]++
		}
	}
	return load
}

// freeNIsInto appends the NIs other than exclude with a free core seat to
// out.
func freeNIsInto(out []int, load []int, exclude, coresPerNI int) []int {
	for ni, n := range load {
		if ni != exclude && n < coresPerNI {
			out = append(out, ni)
		}
	}
	return out
}

// EmptiestNI returns the least-loaded NI with a free seat other than the
// excluded pair, or -1.
func EmptiestNI(load []int, exclude, exclude2, coresPerNI int) int {
	best, bestLoad := -1, 0
	for ni, n := range load {
		if ni == exclude || ni == exclude2 || n >= coresPerNI {
			continue
		}
		if best < 0 || n < bestLoad {
			best, bestLoad = ni, n
		}
	}
	return best
}
