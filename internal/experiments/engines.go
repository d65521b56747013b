package experiments

import (
	"context"
	"fmt"
	"time"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/traffic"
	"nocmap/pkg/noc"
)

// EngineRow is one (design, engine) cell of the search-engine comparison:
// the network the engine designed and how long it searched.
type EngineRow struct {
	Design   string
	Engine   string
	Switches int
	Dim      string
	AvgHops  float64
	MaxUtil  float64
	Cost     float64
	Elapsed  time.Duration
	// LowerBound is the run's lower bound on the feasible switch count (the
	// seat bound, or the exact engine's branch-and-bound proof); Gap is the
	// optimality gap (Switches - LowerBound) / LowerBound. BoundExact marks a
	// row proven optimal in switch count.
	LowerBound int
	Gap        float64
	BoundExact bool
}

// EngineOptions tune the comparison's stochastic engines. Seed and Seeds
// are passed to the engines verbatim (seed 0 is a valid PRNG stream and
// seeds 0 a pure-greedy portfolio); DefaultEngineOptions matches the CLI
// defaults.
type EngineOptions struct {
	// Seed is the base PRNG seed; derived member seeds are deterministic
	// functions of it.
	Seed int64
	// Seeds is the number of multi-start annealers in the portfolio engine.
	Seeds int
	// Budget is each engine run's job deadline (0 = none).
	Budget time.Duration
	// Iters overrides the annealing moves per start when positive.
	Iters int
	// Restarts overrides the feasible-start probes per shrunk fabric size
	// when positive.
	Restarts int
	// Population and Generations override the population engines' sizing
	// when positive; Nodes overrides the exact engine's node budget.
	Population  int
	Generations int
	Nodes       int
}

// DefaultEngineOptions returns the comparison defaults (seed 1, four
// portfolio annealers, unbounded) — the values nocbench's flags default to.
func DefaultEngineOptions() EngineOptions { return EngineOptions{Seed: 1, Seeds: 4} }

// EngineDesigns returns the comparison suite: the D1-D4 SoC stand-ins plus
// one Spread and one Bottleneck synthetic design from the Figure 6 families.
func EngineDesigns() ([]*traffic.Design, error) {
	var out []*traffic.Design
	for _, gen := range []func() (*traffic.Design, error){bench.D1, bench.D2, bench.D3, bench.D4} {
		d, err := gen()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	sp, err := bench.Synthetic(bench.SpreadSpec(10, SpFamilySeed))
	if err != nil {
		return nil, err
	}
	bot, err := bench.Synthetic(bench.BottleneckSpec(10, BotFamilySeed))
	if err != nil {
		return nil, err
	}
	return append(out, sp, bot), nil
}

// EngineComparison runs every registered search engine over the given
// designs through the public SDK (noc.Map) and reports one row per
// (design, engine) pair. The portfolio contains the greedy engine as a
// member, so its switch count is never above greedy's on any design.
func EngineComparison(ctx context.Context, designs []*traffic.Design, opts EngineOptions) ([]EngineRow, error) {
	weights := noc.DefaultWeights()
	var rows []EngineRow
	for _, d := range designs {
		for _, name := range noc.Engines() {
			mapOpts := []noc.Option{
				noc.WithEngine(name),
				noc.WithSeed(opts.Seed),
				noc.WithSeeds(opts.Seeds),
				noc.WithBudget(opts.Budget),
			}
			if opts.Iters > 0 {
				mapOpts = append(mapOpts, noc.WithIters(opts.Iters))
			}
			if opts.Restarts > 0 {
				mapOpts = append(mapOpts, noc.WithRestarts(opts.Restarts))
			}
			if opts.Population > 0 {
				mapOpts = append(mapOpts, noc.WithPopulation(opts.Population))
			}
			if opts.Generations > 0 {
				mapOpts = append(mapOpts, noc.WithGenerations(opts.Generations))
			}
			if opts.Nodes > 0 {
				mapOpts = append(mapOpts, noc.WithExactNodes(opts.Nodes))
			}
			t0 := time.Now()
			res, err := noc.Map(ctx, d, mapOpts...)
			if err != nil {
				return nil, fmt.Errorf("engine %s on %s: %w", name, d.Name, err)
			}
			stats := core.Stats{
				MaxLinkUtil:   res.MaxLinkUtil,
				AvgMeshHops:   res.AvgMeshHops,
				SlotsReserved: res.SlotsReserved,
			}
			rows = append(rows, EngineRow{
				Design:     d.Name,
				Engine:     name,
				Switches:   res.Switches,
				Dim:        fmt.Sprintf("%dx%d", res.Rows, res.Cols),
				AvgHops:    res.AvgMeshHops,
				MaxUtil:    res.MaxLinkUtil,
				Cost:       weights.OfParts(res.Switches, stats),
				Elapsed:    time.Since(t0),
				LowerBound: res.LowerBoundSwitches,
				Gap:        res.OptimalityGap,
				BoundExact: res.BoundExact,
			})
		}
	}
	return rows, nil
}
