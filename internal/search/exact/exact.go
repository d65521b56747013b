// Package exact implements the registry's branch-and-bound engine: an
// exhaustive search over placements along the topology growth sequence that
// turns the heuristic engines' "best found" into a provable statement. The
// engine walks candidate fabrics in ascending switch count and, for each
// one smaller than the heuristic incumbent, either finds a feasible
// placement (which is then optimal in switch count — every smaller fabric
// was already proven infeasible) or proves none exists. The largest fabric
// reached this way is a provable lower bound on the switch count of ANY
// feasible mapping, which consumers report as the optimality gap
// (best - lower) / lower.
//
// Three admissible prunes keep the tree honest and small:
//
//   - seat capacity: a fabric whose NI seats cannot hold the attached cores
//     is infeasible outright (this alone settles designs the heuristics
//     already map onto the seat-minimal fabric, e.g. D1);
//   - NI seat capacity during the descent (CoresPerNI per NI);
//   - slot demand: every distinct pair of a smooth-switching group reserves
//     at least ceil(bw/slotBW) TDMA slots on its source NI's egress link
//     and its destination NI's ingress link, so a partial assignment whose
//     per-(group, NI link) demand exceeds the slot table is infeasible no
//     matter where the remaining cores go.
//
// Complete placements are evaluated through the real evaluator (routing,
// slot alignment, group sharing), so a "feasible" verdict is a genuine
// mapping, returned as the engine's result. The search is bounded by a
// deterministic weighted node budget (Options.Nodes) rather than
// wall-clock, so a fixed budget reproduces the identical bound on every
// run; context cancellation still bounds the wall-clock, trading bound
// strength for time.
package exact

import (
	"context"
	"sort"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// Node-budget weights: descending one assignment edge costs one unit, a
// full evaluation of a leaf placement costs leafCost. The default budget
// keeps the engine interactive (well under a second of tree work) while
// still exhausting small fabrics.
const (
	defaultNodeBudget = 500000
	leafCost          = 100
)

func init() {
	search.Register("exact", func() search.Engine { return BranchBound{} })
}

// BranchBound is the exact engine. Its result is never worse than greedy's
// (the greedy mapping is the incumbent the search tries to beat) and always
// carries LowerBoundSwitches; LowerBoundExact reports whether the bound was
// proven tight within the budget.
type BranchBound struct{}

// Name implements search.Engine.
func (BranchBound) Name() string { return "exact" }

// dimOutcome is the verdict on one candidate fabric.
type dimOutcome int

const (
	dimInfeasible dimOutcome = iota // every placement proven infeasible
	dimFeasible                     // a feasible placement was found
	dimExhausted                    // budget or deadline ran out first
)

// Search implements search.Engine.
func (bb BranchBound) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The greedy base is the incumbent to beat and the fallback result.
	base, evals, err := opts.GreedyStart(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	opts.Emit(bb.Name(), search.StageMapped, base, search.Counts{})

	best := base
	incSwitches := base.Mapping.SwitchCount()
	baseEv, err := evals.For(base.Mapping.Topology)
	if err != nil {
		return nil, err
	}
	b := newBnb(baseEv, prep, numCores, p, opts, base)

	lb, exact := 0, false
	for _, dim := range topology.GrowthSequence(p.MaxMeshDim) {
		s := dim.Switches()
		if s >= incSwitches {
			// Every fabric smaller than the incumbent is proven infeasible:
			// the incumbent is optimal in switch count.
			lb, exact = incSwitches, true
			break
		}
		if ctx.Err() != nil || b.nodes <= 0 {
			lb = s // smaller fabrics are all proven infeasible
			break
		}
		if s*p.CoresPerSwitch() < len(b.order) {
			continue // seat bound: proven infeasible without descending
		}
		outcome, res := b.searchDim(ctx, evals, dim)
		if outcome == dimInfeasible {
			continue
		}
		lb = s
		if outcome == dimFeasible {
			// Optimal: feasible here, infeasible everywhere smaller.
			exact = true
			if opts.Weights.Of(res) < opts.Weights.Of(best)-store.CostEps {
				best = res
				best.LowerBoundSwitches = lb
				best.LowerBoundExact = true
				opts.Emit(bb.Name(), search.StageImproved, best, b.counts)
			}
		}
		break
	}
	if lb == 0 {
		// The growth sequence ended below the incumbent's size — impossible
		// when the incumbent came from the same sequence, but keep the bound
		// well-formed regardless.
		lb, exact = incSwitches, true
	}
	// The bound goes onto a copy: best may be the caller's Options.Base.
	out := *best
	out.LowerBoundSwitches = lb
	out.LowerBoundExact = exact && out.Mapping.SwitchCount() == lb
	opts.Emit(bb.Name(), search.StageDone, &out, b.counts)
	return &out, nil
}

// bnb carries the state of one branch-and-bound run across candidate
// fabrics: the descent order and the remaining weighted node budget. The
// per-(group, core) slot demands the prune and the order read are the
// evaluator's (core.Evaluator.NIDemand), the table the mapper projects NI
// load from.
type bnb struct {
	prep     *usecase.Prepared
	numCores int
	p        core.Params
	opts     search.Options
	nodes    int
	counts   search.Counts

	// order lists the attached cores most-constrained first (highest total
	// slot demand, then lowest index) — failing early keeps the tree small.
	order []int
}

func newBnb(ev *core.Evaluator, prep *usecase.Prepared, numCores int, p core.Params, opts search.Options, base *core.Result) *bnb {
	b := &bnb{prep: prep, numCores: numCores, p: p, opts: opts, nodes: opts.Nodes}
	if b.nodes == 0 {
		b.nodes = defaultNodeBudget
	}
	attached := make([]int, 0, numCores)
	for c, s := range base.Mapping.CoreSwitch {
		if s >= 0 {
			attached = append(attached, c)
		}
	}
	demand := func(c int) int {
		total := 0
		for g := range prep.Groups {
			out, in := ev.NIDemand(g, c)
			total += out + in
		}
		return total
	}
	sort.SliceStable(attached, func(i, j int) bool {
		di, dj := demand(attached[i]), demand(attached[j])
		if di != dj {
			return di > dj
		}
		return attached[i] < attached[j]
	})
	b.order = attached
	return b
}

// searchDim runs the depth-first descent over placements of the attached
// cores onto the fabric's NI seats. It returns dimFeasible with a genuine
// evaluated mapping, dimInfeasible when the whole tree was exhausted
// without one, or dimExhausted when the node budget or deadline ran out
// with branches still unexplored.
func (b *bnb) searchDim(ctx context.Context, evals *search.EvalCache, dim topology.Dim) (dimOutcome, *core.Result) {
	top, err := b.p.Topology.ForDim(dim, b.p.CoresPerSwitch())
	if err != nil {
		return dimInfeasible, nil // the family cannot instantiate this size
	}
	ev, err := evals.For(top)
	if err != nil {
		return dimInfeasible, nil
	}
	numNIs := ev.Topology().NumSwitches() * b.p.NIsPerSwitch
	groups := len(b.prep.Groups)
	T := b.p.SlotTableSize

	niLoad := make([]int, numNIs)
	egress := make([][]int, numNIs)
	ingress := make([][]int, numNIs)
	for ni := 0; ni < numNIs; ni++ {
		egress[ni] = make([]int, groups)
		ingress[ni] = make([]int, groups)
	}
	cs := make([]int, b.numCores)
	cn := make([]int, b.numCores)
	for c := range cs {
		cs[c], cn[c] = -1, -1
	}

	// load adds sign times core c's slot demand to NI ni's per-group sums
	// and reports whether every sum still fits the slot table.
	load := func(ni, c, sign int) bool {
		fits := true
		for g := 0; g < groups; g++ {
			out, in := ev.NIDemand(g, c)
			egress[ni][g] += sign * out
			ingress[ni][g] += sign * in
			if egress[ni][g] > T || ingress[ni][g] > T {
				fits = false
			}
		}
		return fits
	}

	var res *core.Result
	var dfs func(i int) dimOutcome
	dfs = func(i int) dimOutcome {
		if ctx.Err() != nil || b.nodes <= 0 {
			return dimExhausted
		}
		if i == len(b.order) {
			b.nodes -= leafCost
			b.counts.Moves++
			r, err := ev.Evaluate(cs, cn)
			if err != nil {
				return dimInfeasible
			}
			b.counts.Accepted++
			res = r
			return dimFeasible
		}
		c := b.order[i]
		for ni := 0; ni < numNIs; ni++ {
			if niLoad[ni] >= b.p.CoresPerNI {
				continue
			}
			b.nodes--
			if load(ni, c, 1) {
				niLoad[ni]++
				cn[c] = ni
				cs[c] = ni / b.p.NIsPerSwitch
				out := dfs(i + 1)
				niLoad[ni]--
				cn[c], cs[c] = -1, -1
				if out != dimInfeasible {
					load(ni, c, -1)
					return out
				}
			}
			load(ni, c, -1)
			if b.nodes <= 0 {
				return dimExhausted
			}
		}
		return dimInfeasible
	}
	return dfs(0), res
}
