package population

import (
	"context"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/usecase"
)

// GA is a genetic algorithm over placement permutations: tournament parent
// selection, uniform crossover on the core→NI assignment with greedy
// capacity repair, a low-rate swap mutation, and elitism (the best quarter
// of the population survives every generation untouched). Children are
// scored through one incremental Session move over the cores the crossover
// actually relocated; an infeasible child (routing or slot rejection)
// leaves its slot's previous occupant in place.
type GA struct{}

// Name implements search.Engine.
func (GA) Name() string { return "ga" }

// Search implements search.Engine.
func (g GA) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	return run(ctx, gaEvolver{}, g.Name(), prep, numCores, p, opts)
}

type gaEvolver struct{}

// mutationRate is the per-child probability of one extra random swap after
// crossover.
const mutationRate = 0.2

func (gaEvolver) evolve(ctx context.Context, d *driver, ev *core.Evaluator,
	switches int, pop []*indiv, attached []int) {
	elite := max(1, len(pop)/4)
	for gen := 0; gen < d.gens; gen++ {
		if ctx.Err() != nil {
			return
		}
		order := rankedIndices(pop)
		// Replace the worst len(pop)-elite members with crossover children,
		// steady-state style: a child created earlier in the generation can
		// be drawn as a parent later in it.
		for _, slot := range order[elite:] {
			pa := pop[d.tournament(pop, 3)]
			pb := pop[d.tournament(pop, 3)]
			pa.sess.PlacementInto(d.csBuf, d.paBuf) // csBuf is scratch here
			pb.sess.PlacementInto(d.csBuf, d.pbBuf)
			d.crossover(attached, d.paBuf, d.pbBuf)
			if d.Rng.Float64() < mutationRate {
				d.mutateSwap(attached)
			}
			m := pop[slot]
			if d.adopt(m, switches, d.csBuf, d.cnBuf) {
				d.ConsiderSession(m.sess, m.cost)
			}
		}
	}
}

// tournament returns the index of the best of k uniformly drawn members
// (ties toward the earlier draw).
func (d *driver) tournament(pop []*indiv, k int) int {
	best := d.Rng.Intn(len(pop))
	for i := 1; i < k; i++ {
		c := d.Rng.Intn(len(pop))
		if pop[c].cost < pop[best].cost-store.CostEps {
			best = c
		}
	}
	return best
}

// crossover builds a child placement in d.cnBuf/d.csBuf from two parents'
// core→NI assignments (paCN, pbCN): each attached core inherits one
// parent's seat uniformly at random, falling back to the other parent's —
// and then to the emptiest free NI — when the inherited NI is already full.
// The single greedy pass keeps every child seat-feasible by construction.
func (d *driver) crossover(attached []int, paCN, pbCN []int) {
	cn, cs := d.cnBuf, d.csBuf
	for c := 0; c < d.NumCores; c++ {
		cn[c], cs[c] = -1, -1
	}
	load := d.Occupancy(cn)
	for _, c := range attached {
		pick, alt := paCN[c], pbCN[c]
		if d.Rng.Intn(2) == 1 {
			pick, alt = alt, pick
		}
		if load[pick] >= d.P.CoresPerNI {
			pick = alt
		}
		if load[pick] >= d.P.CoresPerNI {
			pick = search.EmptiestNI(load, -1, -1, d.P.CoresPerNI)
			if pick < 0 {
				// No seat anywhere — impossible on a fabric that seated the
				// parents, but keep the child well-formed regardless.
				pick = paCN[c]
			}
		}
		load[pick]++
		cn[c] = pick
		cs[c] = pick / d.P.NIsPerSwitch
	}
}

// mutateSwap exchanges the seats of two random attached cores in the child
// buffers.
func (d *driver) mutateSwap(attached []int) {
	cn, cs := d.cnBuf, d.csBuf
	x := attached[d.Rng.Intn(len(attached))]
	y := attached[d.Rng.Intn(len(attached))]
	if x == y || cn[x] == cn[y] {
		return
	}
	cn[x], cn[y] = cn[y], cn[x]
	cs[x], cs[y] = cs[y], cs[x]
}
