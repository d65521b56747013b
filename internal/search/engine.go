// Package search is the pluggable mapping-optimizer subsystem. The paper's
// Phase 2 heuristic (internal/core) is one-shot and greedy; related work on
// mesh mapping shows metaheuristics routinely find smaller or better-loaded
// networks from the same inputs. This package defines a common Engine
// interface over the prepared use-cases, a unified cost model on top of
// core.Stats, and three engines:
//
//   - greedy:    the paper's Algorithm 2, unchanged (core.Map).
//   - anneal:    simulated annealing over core placements, scoring every
//     candidate through an incremental core.Session move, including
//     attempts to shrink below the greedy mesh size.
//   - portfolio: a parallel multi-start portfolio that races the greedy
//     engine against N deterministically-seeded annealers under a shared
//     context and returns the best feasible result.
//
// The population subpackage registers three metaheuristic engines over the
// same placement encoding (ga, pso, abc), and the exact subpackage
// registers a branch-and-bound engine that computes provable switch-count
// lower bounds on small designs. The annealer and the population engines
// share one Kit (kit.go): the greedy base, the restart probes of smaller
// fabrics, the incumbent bookkeeping and the swap/relocate neighbourhood,
// so they differ only in how they search one fabric. Every future strategy
// plugs in by registering another Engine.
package search

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// Engine is one mapping strategy. Search returns the best mapping the
// strategy found, or an error when it found none (infeasible design,
// cancelled context before any solution).
type Engine interface {
	Name() string
	Search(ctx context.Context, prep *usecase.Prepared, numCores int,
		p core.Params, opts Options) (*core.Result, error)
}

// Options tune the search engines. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Seed is the base PRNG seed. Every derived seed (multi-start annealers)
	// is a deterministic function of it, so a fixed Seed reproduces the run.
	Seed int64
	// Seeds is the number of multi-start annealers the portfolio launches in
	// addition to the greedy engine.
	Seeds int
	// Iters is the number of annealing moves per start.
	Iters int
	// SpecK enables speculative move evaluation: each annealing step
	// proposes SpecK candidate moves of the current placement and scores
	// them concurrently, one per cloned evaluation session, accepting the
	// best improving candidate (with a Metropolis draw on the least-bad one
	// when nothing improves). Iters still counts candidate evaluations, so
	// runs at different SpecK spend comparable search effort, and a run
	// depends only on (Seed, SpecK, Iters). 0 and 1 run the serial chain.
	// Values above 64 are rejected. No request, SDK option or flag sets
	// it: only perfbench's anneal_spec2 trace probe and tests do, and it
	// goes when that probe does.
	SpecK int
	// Restarts is how many random placements the improvement engines
	// (anneal, ga, pso, abc) try per smaller-than-greedy mesh size when
	// probing for a feasible start; abc's scouts draw as many (at least one)
	// when abandoning a food source.
	Restarts int
	// Population is the number of candidate placements the population-based
	// engines (ga, pso, abc) carry per generation. Zero means the engine
	// default (16).
	Population int
	// Generations is the number of evolution rounds the population-based
	// engines run per fabric. Zero means the engine default (24).
	Generations int
	// Nodes bounds the exact branch-and-bound engine's search effort in
	// weighted node units (an internal tree node costs 1 unit, a leaf
	// evaluation 100). Zero means the engine default (500000). The bound the
	// engine reports is provable at whatever depth the budget allowed.
	Nodes int
	// Weights score candidate mappings.
	Weights CostWeights
	// Progress, when set, receives streaming events while the search runs:
	// the constructive base (StageMapped), every strict improvement of an
	// engine's incumbent (StageImproved), and the final result (StageDone).
	// The callback runs synchronously on the searching goroutine and is
	// never invoked concurrently with itself — the portfolio serializes its
	// members — so a slow callback slows the search. Progress does not
	// affect the result and is excluded from service cache keys.
	Progress func(Event)

	// Base, when set, is this request's own greedy result: core.MapContext
	// of the same prepared design, core count and params. The engines that
	// start from the greedy base (the improvement engines, portfolio and
	// exact) take it through GreedyStart instead of mapping again, and must
	// not modify it. The portfolio hands its base
	// to every member, and the service hands over the greedy result a
	// streamed request already served. It is not part of the request: it
	// changes no result, and it stays out of cache keys and off the wire.
	Base *core.Result
	// BaseEvaluator, when set, is the evaluator core.MapWithEvaluator
	// returned with Base. GreedyStart seeds the search's evaluator cache
	// with it, so the design's templates are built once per request. Like
	// Base it changes no result; it is set only together with Base.
	BaseEvaluator *core.Evaluator
	// evals, when set, is a shared per-topology evaluator cache. The
	// portfolio hands one cache to all its annealers so the per-topology
	// precomputation (validation, flow templates, candidate-path tables)
	// happens once across the whole pool.
	evals *EvalCache
}

// GreedyStart returns the greedy result an engine starts from, Options.Base
// when set and otherwise core.MapWithEvaluator of the design, and the
// evaluator cache the engine scores candidates through: the one the
// portfolio handed down, or a new one that already holds the evaluator of
// the result's fabric (Options.BaseEvaluator, or the one the greedy pass
// just returned), so no evaluator rebuilds the templates greedy built.
func (o Options) GreedyStart(ctx context.Context, prep *usecase.Prepared, numCores int, p core.Params) (*core.Result, *EvalCache, error) {
	base, ev := o.Base, o.BaseEvaluator
	if base == nil {
		var err error
		if base, ev, err = core.MapWithEvaluator(ctx, prep, numCores, p); err != nil {
			return nil, nil, err
		}
	}
	evals := o.evals
	if evals == nil {
		evals = NewEvalCache(prep, numCores, p)
		if ev != nil {
			evals.adopt(ev)
		}
	}
	return base, evals, nil
}

// DefaultOptions returns the evaluation defaults: a modest annealing length
// that keeps D1-class designs interactive and four portfolio seeds.
func DefaultOptions() Options {
	return Options{
		Seed:     1,
		Seeds:    4,
		Iters:    120,
		Restarts: 3,
		Weights:  DefaultCostWeights(),
	}
}

// Validate rejects nonsensical option combinations.
func (o Options) Validate() error {
	switch {
	case o.Seeds < 0:
		return fmt.Errorf("search: seeds %d invalid", o.Seeds)
	case o.Iters < 0:
		return fmt.Errorf("search: iters %d invalid", o.Iters)
	case o.Restarts < 0:
		return fmt.Errorf("search: restarts %d invalid", o.Restarts)
	case o.SpecK < 0 || o.SpecK > 64:
		return fmt.Errorf("search: speculation width %d invalid (want 0..64)", o.SpecK)
	case o.Population < 0:
		return fmt.Errorf("search: population %d invalid", o.Population)
	case o.Generations < 0:
		return fmt.Errorf("search: generations %d invalid", o.Generations)
	case o.Nodes < 0:
		return fmt.Errorf("search: node budget %d invalid", o.Nodes)
	}
	return nil
}

// CostWeights combine the paper's size metric with the load statistics of
// core.Stats into one scalar objective. Switch count dominates by
// construction — a mapping on a smaller mesh always wins — with mean mesh
// hops and the worst slot-table occupancy breaking ties within one size.
type CostWeights struct {
	SwitchCount float64
	MeanHops    float64
	MaxUtil     float64
}

// DefaultCostWeights weight one saved switch above any achievable hop or
// utilization improvement (hops and utilization are bounded far below 1000
// on every mesh the growth loop visits).
func DefaultCostWeights() CostWeights {
	return CostWeights{SwitchCount: 1000, MeanHops: 1, MaxUtil: 10}
}

// Of scores a result; lower is better.
func (w CostWeights) Of(r *core.Result) float64 {
	return w.OfParts(r.Mapping.SwitchCount(), r.Stats)
}

// OfParts scores a candidate from its switch count and statistics alone.
// The engines' incremental evaluation produces Stats without materializing
// a Result, so their move loops score candidates through this form.
func (w CostWeights) OfParts(switches int, s core.Stats) float64 {
	return w.SwitchCount*float64(switches) +
		w.MeanHops*s.AvgMeshHops +
		w.MaxUtil*s.MaxLinkUtil
}

// engines is the registry; New resolves names against it. The mutex makes
// registration safe while a concurrent service resolves engines.
var (
	enginesMu sync.RWMutex
	engines   = map[string]func() Engine{
		"greedy":    func() Engine { return Greedy{} },
		"anneal":    func() Engine { return Anneal{} },
		"portfolio": func() Engine { return Portfolio{} },
	}
)

// Register adds (or replaces) an engine constructor under name. Strategies
// outside this package — and test doubles — plug into every consumer
// (nocmap, nocbench, the mapping service) by registering here.
func Register(name string, mk func() Engine) {
	enginesMu.Lock()
	defer enginesMu.Unlock()
	engines[name] = mk
}

// New returns the engine registered under name.
func New(name string) (Engine, error) {
	enginesMu.RLock()
	mk, ok := engines[name]
	enginesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("search: unknown engine %q (have %v)", name, Names())
	}
	return mk(), nil
}

// Names lists the registered engines in sorted order.
func Names() []string {
	enginesMu.RLock()
	defer enginesMu.RUnlock()
	out := make([]string, 0, len(engines))
	for n := range engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
