package search

import (
	"context"
	"sync"

	"nocmap/internal/core"
	"nocmap/internal/store"
	"nocmap/internal/usecase"
)

// Portfolio runs the greedy engine once and races Options.Seeds
// deterministically-seeded annealers (all starting from the greedy result)
// on a shared worker pool, returning the best feasible result under the
// cost weights. All workers observe one context: its cancellation or
// deadline stops the whole portfolio, with each annealer contributing its
// best-so-far. Ties break toward the greedy base, then the lowest-numbered
// annealer, so with a fixed base seed and a context that does not end
// early the outcome is independent of goroutine scheduling.
type Portfolio struct{}

// Name implements Engine.
func (Portfolio) Name() string { return "portfolio" }

// Search implements Engine.
func (pf Portfolio) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The greedy pass is deterministic, so it runs once up front, and a
	// context that ends after it still yields the feasible greedy result.
	// The annealers all start from its result; if greedy finds no mapping
	// the annealers cannot either, since they explore from the greedy
	// solution.
	// One serialized progress callback is shared by every member annealer,
	// so the caller's callback never runs concurrently with itself no
	// matter how the pool schedules.
	opts.Progress = serializedProgress(opts.Progress)
	base, evals, err := opts.GreedyStart(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	opts.Emit(pf.Name(), StageMapped, base, Counts{})

	// The member annealers run under the shared context, with derived
	// seeds, and against one shared evaluator cache: the per-topology
	// precomputation (validation, flow templates, candidate-path tables) is
	// paid once for the whole pool instead of once per member.
	results := make([]outcome, opts.Seeds)
	var wg sync.WaitGroup
	for i := range results {
		o := opts
		o.Seed = opts.Seed + int64(i)*7919 // distinct deterministic streams
		o.Base = base
		o.evals = evals
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Anneal{}.Search(ctx, prep, numCores, p, o)
			results[i] = outcome{order: i + 1, res: res, err: err}
		}()
	}
	wg.Wait()

	best := pickBest(base, results, opts.Weights)
	opts.Emit(pf.Name(), StageDone, best, Counts{})
	return best, nil
}

// outcome is one member's finished run, tagged with its deterministic order
// (0 is reserved for the greedy base).
type outcome struct {
	order int
	res   *core.Result
	err   error
}

// pickBest selects the portfolio winner: the lowest-cost feasible result,
// with ties (within the float tolerance) breaking toward the greedy base
// and then the lowest-numbered annealer — so a fixed base seed yields one
// outcome regardless of goroutine scheduling.
func pickBest(base *core.Result, results []outcome, w CostWeights) *core.Result {
	best, bestCost, bestOrder := base, w.Of(base), 0
	for _, o := range results {
		if o.err != nil || o.res == nil {
			continue // the greedy base already guarantees a feasible result
		}
		c := w.Of(o.res)
		if c < bestCost-store.CostEps || (c < bestCost+store.CostEps && o.order < bestOrder) {
			best, bestCost, bestOrder = o.res, c, o.order
		}
	}
	return best
}
