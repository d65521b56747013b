package population

import (
	"context"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/usecase"
)

// PSO is a discrete particle swarm over placements. A particle's velocity
// is a short swap sequence rather than a real-valued vector: each iteration
// the particle applies up to one inertial random perturbation plus a few
// alignment swaps that move differing cores toward its personal best and
// the swarm's global best (the classic swap-sequence formulation of PSO on
// permutation problems). The combined target placement is scored through
// one incremental Session move; an infeasible target leaves the particle
// where it was — velocity dissipates instead of wedging the swarm.
type PSO struct{}

// Name implements search.Engine.
func (PSO) Name() string { return "pso" }

// Search implements search.Engine.
func (ps PSO) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	return run(ctx, psoEvolver{}, ps.Name(), prep, numCores, p, opts)
}

type psoEvolver struct{}

// PSO coefficients: inertia keeps a particle exploring (one random
// perturbation with probability psoInertia), and each differing core is
// pulled toward the personal / global best with the cognitive / social
// probabilities. At most psoMaxAlign cores per attractor move in one
// iteration, so a velocity step stays a cheap incremental re-route.
const (
	psoInertia   = 0.3
	psoCognitive = 0.5
	psoSocial    = 0.5
	psoMaxAlign  = 2
)

func (psoEvolver) evolve(ctx context.Context, d *driver, ev *core.Evaluator,
	switches int, pop []*indiv, attached []int) {
	// Personal bests start at the initial positions; the global best is the
	// lowest-cost member (ties toward the lower index).
	pbestCN := make([][]int, len(pop))
	pbestCost := make([]float64, len(pop))
	for i, m := range pop {
		pbestCN[i] = make([]int, len(d.cnBuf))
		m.sess.PlacementInto(d.csBuf, pbestCN[i]) // csBuf is scratch here
		pbestCost[i] = m.cost
	}
	gbest := rankedIndices(pop)[0]
	gbestCN := append([]int(nil), pbestCN[gbest]...)
	gbestCost := pbestCost[gbest]

	for gen := 0; gen < d.gens; gen++ {
		if ctx.Err() != nil {
			return
		}
		for i, m := range pop {
			// Build the iteration's target placement in cnBuf/csBuf.
			m.sess.PlacementInto(d.csBuf, d.cnBuf)
			changed := false
			if d.Rng.Float64() < psoInertia {
				_, _, changed = d.Move(d.csBuf, d.cnBuf, attached)
			}
			changed = d.alignTarget(attached, pbestCN[i], psoCognitive) || changed
			changed = d.alignTarget(attached, gbestCN, psoSocial) || changed
			if !changed {
				continue
			}
			if !d.adopt(m, switches, d.csBuf, d.cnBuf) {
				continue
			}
			if m.cost < pbestCost[i]-store.CostEps {
				pbestCost[i] = m.cost
				m.sess.PlacementInto(d.csBuf, pbestCN[i]) // csBuf is scratch here
			}
			if m.cost < gbestCost-store.CostEps {
				gbestCost = m.cost
				gbestCN = append(gbestCN[:0], pbestCN[i]...)
				d.ConsiderSession(m.sess, m.cost)
			}
		}
	}
}

// alignTarget pulls up to psoMaxAlign differing attached cores of the
// target buffers toward the attractor placement: each selected core takes
// the attractor's seat, swapping with the lowest-indexed core currently on
// that seat's NI when it is full. Cores are scanned in a rotated
// deterministic order so the pull does not always favour low-indexed cores.
func (d *driver) alignTarget(attached []int, attractor []int, prob float64) bool {
	cn, cs := d.cnBuf, d.csBuf
	load := d.Occupancy(cn)
	moved, changed := 0, false
	off := d.Rng.Intn(len(attached))
	for k := 0; k < len(attached) && moved < psoMaxAlign; k++ {
		c := attached[(k+off)%len(attached)]
		want := attractor[c]
		if want < 0 || cn[c] == want || d.Rng.Float64() >= prob {
			continue
		}
		if load[want] < d.P.CoresPerNI {
			load[cn[c]]--
			load[want]++
			cn[c] = want
			cs[c] = want / d.P.NIsPerSwitch
		} else {
			// Seat full: swap with the lowest-indexed core on the wanted NI.
			partner := -1
			for _, o := range attached {
				if o != c && cn[o] == want {
					partner = o
					break
				}
			}
			if partner < 0 {
				continue
			}
			cn[c], cn[partner] = cn[partner], cn[c]
			cs[c], cs[partner] = cs[partner], cs[c]
		}
		moved++
		changed = true
	}
	return changed
}
