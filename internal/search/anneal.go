package search

import (
	"context"
	"math"

	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// Anneal is simulated annealing over core placements. It starts from the
// greedy mapping and explores the Kit's swap and relocate moves through a
// core.Session: a move tears down and re-reserves only the flows whose
// endpoints changed seats (falling back to a full configuration pass when
// the incremental order wedges), so every accepted candidate is still a
// complete, feasible multi-use-case configuration. Beyond refining the
// greedy mesh, it anneals every smaller mesh the Kit's restart probes find
// a feasible placement on. By construction the engine never returns a
// result worse than greedy's under the configured cost weights.
type Anneal struct{}

// Name implements Engine.
func (Anneal) Name() string { return "anneal" }

// Search implements Engine.
func (an Anneal) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts Options) (*core.Result, error) {
	return Improve(ctx, an.Name(), prep, numCores, p, opts, func(k *Kit) Improver {
		k.specK = opts.SpecK
		return annealer{k}.annealFrom
	})
}

// annealer runs the annealing chains of one Search on the shared Kit.
type annealer struct{ *Kit }

// annealFrom runs one simulated-annealing chain starting at the given
// feasible result, with a geometric temperature schedule and Metropolis
// acceptance over the Kit's proposals.
func (a annealer) annealFrom(ctx context.Context, start *core.Result, attached []int) {
	if len(attached) < 2 || a.Opts.Iters == 0 {
		return
	}
	ev, err := a.Evals.For(start.Mapping.Topology)
	if err != nil {
		return
	}
	// Adopt the start's reservations instead of re-evaluating its placement:
	// constructive results are not always reproducible under fixed-placement
	// routing order, and the chain must start from the configuration the
	// incumbent actually scored.
	sess, err := ev.SessionFrom(start)
	if err != nil {
		return
	}
	switches := ev.Topology().NumSwitches()
	curCost := a.Opts.Weights.OfParts(switches, sess.Stats())
	// Initial temperature accepts ~5%-of-cost uphill moves; cool to 1/1000 of
	// that over the run.
	t0 := 0.05*curCost + 1e-9
	alpha := math.Pow(1e-3, 1/float64(a.Opts.Iters))
	if a.Opts.SpecK > 1 {
		a.annealBatch(ctx, sess, switches, attached, curCost, t0, alpha)
		return
	}
	temp := t0
	for it := 0; it < a.Opts.Iters; it++ {
		if ctx.Err() != nil {
			return
		}
		// Every iteration counts as a move, whether or not its draw yielded
		// a candidate.
		a.Counts.Moves++
		stats, _, ok := a.Propose(sess, attached)
		if !ok {
			temp *= alpha
			continue
		}
		candCost := a.Opts.Weights.OfParts(switches, stats)
		delta := candCost - curCost
		if delta <= 0 || a.Rng.Float64() < math.Exp(-delta/temp) {
			sess.Keep()
			a.Counts.Accepted++
			curCost = candCost
			a.ConsiderSession(sess, candCost)
		} else {
			sess.Undo()
		}
		temp *= alpha
	}
}
