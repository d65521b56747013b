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

// job is one engine run of the portfolio.
type job struct {
	order  int
	engine Engine
	opts   Options
}

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
	// With speculation on, members collaborate through a shared incumbent
	// exchange: strict improvements are published as they happen, and each
	// member adopts the pool's best before probing smaller fabrics, so
	// restarts seed from good placements instead of re-exploring sizes the
	// pool already beat. The exchange trades the serial portfolio's
	// scheduling-independence for cross-member pruning, so it is wired up
	// only when the caller opted into speculation.
	var board *IncumbentBoard
	if opts.SpecK > 1 {
		board = &IncumbentBoard{}
		board.Publish(base, opts.Weights.Of(base))
	}
	var jobs []job
	for i := 0; i < opts.Seeds; i++ {
		o := opts
		o.Seed = opts.Seed + int64(i)*7919 // distinct deterministic streams
		o.Base = base
		o.evals = evals
		o.Board = board
		jobs = append(jobs, job{order: i + 1, engine: Anneal{}, opts: o})
	}

	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := j.engine.Search(ctx, prep, numCores, p, j.opts)
			results[i] = outcome{order: j.order, res: res, err: err}
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
