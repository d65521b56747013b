// Package population implements the population-based metaheuristic engines
// of the search registry: genetic algorithm (ga), particle swarm (pso) and
// artificial bee colony (abc). All three share one problem encoding — a
// placement of the attached cores over the NI seats of a candidate fabric —
// and one evaluation path: every candidate is scored through a zero-alloc
// core.Session move (incremental teardown and re-reservation of the flows
// whose endpoints changed seats), so a population step costs a handful of
// delta evaluations instead of full re-configurations.
//
// The engines run on the search.Kit the annealer uses: search.Improve
// supplies the greedy base as feasibility anchor and first incumbent, the
// restart probes of every smaller fabric that could still seat the
// attached cores, and the incumbent bookkeeping (one StageImproved event
// per strict improvement); the Kit's swap/relocate proposal is the
// engines' random move. This package adds
// only the population and its evolution step on each fabric. By
// construction no engine returns a result worse than greedy's under the
// configured cost weights. All randomness flows from the Kit's seeded PRNG
// and candidates are generated and scored serially, so a fixed
// Options.Seed reproduces the run bit for bit.
package population

import (
	"cmp"
	"context"
	"sort"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/usecase"
)

// Engine defaults: a compact population keeps D1-class designs interactive
// while still racing well against the annealer's 120 serial moves.
const (
	defaultPopulation  = 16
	defaultGenerations = 24
)

func init() {
	search.Register("ga", func() search.Engine { return GA{} })
	search.Register("pso", func() search.Engine { return PSO{} })
	search.Register("abc", func() search.Engine { return ABC{} })
}

// evolver is one metaheuristic's per-fabric evolution step: it receives a
// population of individuals positioned at feasible configurations on one
// evaluator and improves them in place, reporting incumbents through
// d.ConsiderSession.
type evolver interface {
	evolve(ctx context.Context, d *driver, ev *core.Evaluator, switches int, pop []*indiv, attached []int)
}

// indiv is one population member: a session holding its committed
// configuration and the member's score under the cost weights.
type indiv struct {
	sess *core.Session
	cost float64
	// trial counts consecutive failed improvement attempts (abc's
	// abandonment rule; unused by ga and pso).
	trial int
}

// driver is one population engine's run: the shared Kit plus the
// population sizing and the buffers of the engines' target placements.
type driver struct {
	*search.Kit
	evolver   evolver
	pop, gens int

	// Target scratch, reused across the run: the target placement, parent
	// placements and the moved-core list.
	csBuf, cnBuf []int
	paBuf, pbBuf []int
	movedBuf     []int
}

// run is the shared engine body: search.Improve with the evolver as the
// per-fabric improvement step.
func run(ctx context.Context, e evolver, name string, prep *usecase.Prepared,
	numCores int, p core.Params, opts search.Options) (*core.Result, error) {
	return search.Improve(ctx, name, prep, numCores, p, opts, func(k *search.Kit) search.Improver {
		d := &driver{
			Kit: k, evolver: e,
			pop:      cmp.Or(opts.Population, defaultPopulation),
			gens:     cmp.Or(opts.Generations, defaultGenerations),
			csBuf:    make([]int, numCores),
			cnBuf:    make([]int, numCores),
			paBuf:    make([]int, numCores),
			pbBuf:    make([]int, numCores),
			movedBuf: make([]int, 0, numCores),
		}
		return d.evolveOn
	})
}

// evolveOn initializes a population around start's fabric and runs the
// metaheuristic's evolution step on it. Member 0 adopts start's exact
// configuration; the rest are diversified by accepted random moves.
func (d *driver) evolveOn(ctx context.Context, start *core.Result, attached []int) {
	if len(attached) < 2 || d.gens == 0 || d.pop == 0 {
		return
	}
	ev, err := d.Evals.For(start.Mapping.Topology)
	if err != nil {
		return
	}
	sess, err := ev.SessionFrom(start)
	if err != nil {
		return
	}
	switches := ev.Topology().NumSwitches()
	pop := make([]*indiv, 0, d.pop)
	pop = append(pop, &indiv{sess: sess, cost: d.Opts.Weights.OfParts(switches, sess.Stats())})
	for i := 1; i < d.pop; i++ {
		if ctx.Err() != nil {
			return
		}
		c, err := sess.Clone()
		if err != nil {
			return
		}
		m := &indiv{sess: c}
		// Diversify with one to three accepted random moves; a member that
		// accepts none simply starts at the base configuration.
		for k := 1 + d.Rng.Intn(3); k > 0; k-- {
			d.randomMove(m.sess, attached)
		}
		m.cost = d.Opts.Weights.OfParts(switches, m.sess.Stats())
		pop = append(pop, m)
	}
	d.evolver.evolve(ctx, d, ev, switches, pop, attached)
}

// proposeMove is the Kit's Propose, counting a move whenever a TryMove ran.
func (d *driver) proposeMove(sess *core.Session, attached []int) (core.Stats, bool) {
	stats, tried, ok := d.Propose(sess, attached)
	if tried {
		d.Counts.Moves++
	}
	return stats, ok
}

// randomMove is proposeMove with unconditional acceptance — the
// diversification primitive. Returns whether the session changed.
func (d *driver) randomMove(sess *core.Session, attached []int) bool {
	if _, ok := d.proposeMove(sess, attached); ok {
		sess.Keep()
		d.Counts.Accepted++
		return true
	}
	return false
}

// adopt moves a member's session to the target placement through one
// incremental TryMove over the differing cores. On success the move is
// committed and the member's cost updated; on failure the member is
// unchanged. Returns whether the member moved.
func (d *driver) adopt(m *indiv, switches int, targetCS, targetCN []int) bool {
	m.sess.PlacementInto(d.paBuf, d.pbBuf)
	moved := d.movedBuf[:0]
	for c := 0; c < d.NumCores; c++ {
		if d.paBuf[c] != targetCS[c] || d.pbBuf[c] != targetCN[c] {
			moved = append(moved, c)
		}
	}
	d.movedBuf = moved
	if len(moved) == 0 {
		return false
	}
	d.Counts.Moves++
	stats, err := m.sess.TryMove(targetCS, targetCN, moved...)
	if err != nil {
		return false
	}
	m.sess.Keep()
	d.Counts.Accepted++
	m.cost = d.Opts.Weights.OfParts(switches, stats)
	return true
}

// rankedIndices returns population indices sorted by ascending cost with
// index as the deterministic tie-break.
func rankedIndices(pop []*indiv) []int {
	order := make([]int, len(pop))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := pop[order[a]].cost, pop[order[b]].cost
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	return order
}
