package population

import (
	"context"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/usecase"
)

// ABC is an artificial bee colony over placements. Each population member
// is a food source; every cycle runs the three canonical phases: employed
// bees probe one neighbouring placement per source (greedy acceptance),
// onlooker bees re-probe sources drawn fitness-proportionally, and a scout
// abandons the source with the most consecutive failures once it exceeds
// the abandonment limit, reseeding it from a fresh random placement (or
// re-diversifying it with random moves when no random placement
// configures). Neighbours are the search.Kit's swap/relocate moves evaluated
// incrementally on the source's session.
type ABC struct{}

// Name implements search.Engine.
func (ABC) Name() string { return "abc" }

// Search implements search.Engine.
func (a ABC) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	return run(ctx, abcEvolver{}, a.Name(), prep, numCores, p, opts)
}

type abcEvolver struct{}

func (abcEvolver) evolve(ctx context.Context, d *driver, ev *core.Evaluator,
	switches int, pop []*indiv, attached []int) {
	// The abandonment limit scales with the colony so larger populations
	// tolerate proportionally longer droughts before scouting.
	limit := max(10, len(pop))
	fitness := make([]float64, len(pop))
	for gen := 0; gen < d.gens; gen++ {
		if ctx.Err() != nil {
			return
		}
		// Employed phase: one neighbour per source.
		for _, m := range pop {
			d.probeSource(m, switches, attached)
		}
		// Onlooker phase: len(pop) more probes, allocated to sources by
		// fitness-proportional roulette (lower cost → higher fitness).
		minCost := pop[rankedIndices(pop)[0]].cost
		total := 0.0
		for i, m := range pop {
			fitness[i] = 1 / (1 + m.cost - minCost)
			total += fitness[i]
		}
		for t := 0; t < len(pop); t++ {
			draw := d.Rng.Float64() * total
			pick := len(pop) - 1
			for i, f := range fitness {
				if draw < f {
					pick = i
					break
				}
				draw -= f
			}
			d.probeSource(pop[pick], switches, attached)
		}
		// Scout phase: abandon the most-exhausted source past the limit.
		worst := 0
		for i, m := range pop {
			if m.trial > pop[worst].trial {
				worst = i
			}
		}
		if pop[worst].trial > limit {
			d.scout(ctx, pop[worst], ev, switches, attached)
		}
	}
}

// probeSource evaluates one neighbouring placement of the source and keeps
// it on strict improvement (greedy acceptance); otherwise the move is
// undone and the source's trial counter grows toward abandonment.
func (d *driver) probeSource(m *indiv, switches int, attached []int) {
	stats, ok := d.proposeMove(m.sess, attached)
	if !ok {
		m.trial++
		return
	}
	cost := d.Opts.Weights.OfParts(switches, stats)
	if cost < m.cost-store.CostEps {
		m.sess.Keep()
		d.Counts.Accepted++
		m.cost = cost
		m.trial = 0
		d.ConsiderSession(m.sess, m.cost)
		return
	}
	m.sess.Undo()
	m.trial++
}

// scout replaces an abandoned source with a fresh random placement on the
// same fabric, falling back to re-diversifying the existing source when no
// random placement configures within Options.Restarts draws (at least one).
func (d *driver) scout(ctx context.Context, m *indiv, ev *core.Evaluator, switches int, attached []int) {
	if res := d.Probe(ctx, ev, attached, max(1, d.Opts.Restarts)); res != nil {
		// A placement the evaluator just configured always replays.
		if sess, err := ev.SessionFrom(res); err == nil {
			m.sess = sess
			m.cost = d.Opts.Weights.OfParts(switches, sess.Stats())
			m.trial = 0
			d.ConsiderSession(m.sess, m.cost)
			return
		}
	}
	if ctx.Err() != nil {
		return
	}
	// No random placement configured: shake the source instead.
	for k := 0; k < 3; k++ {
		d.randomMove(m.sess, attached)
	}
	m.cost = d.Opts.Weights.OfParts(switches, m.sess.Stats())
	m.trial = 0
	d.ConsiderSession(m.sess, m.cost)
}
