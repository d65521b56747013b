package search

import (
	"context"

	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// Greedy wraps the paper's Algorithm 2 (core.Map) behind the Engine
// interface. It is the portfolio's safety net: deterministic, fast, and the
// baseline every metaheuristic engine must beat or match.
type Greedy struct{}

// Name implements Engine.
func (Greedy) Name() string { return "greedy" }

// Search implements Engine by running the constructive heuristic once.
// External cancellation (a caller deadline, a disconnected service client)
// is observed between mesh sizes of the growth loop (core.MapContext).
// Greedy has no best-so-far to salvage from a truncated constructive pass,
// so a context that ends mid-run is an error; the improvement engines built
// on top (anneal, portfolio) fall back to this engine's completed result.
func (g Greedy) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	res, err := core.MapContext(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	o := opts
	o.Seed = 0 // deterministic: no PRNG stream to report
	o.Emit(g.Name(), StageDone, res, Counts{})
	return res, nil
}
