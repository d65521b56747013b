package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"nocmap/internal/route"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// Map runs the full methodology on pre-processed use-cases: the outer loop
// walks the mesh growth sequence (Algorithm 2, steps 1 and 8) and the inner
// loop performs the unified mapping, path selection and slot reservation
// (steps 2-7). It returns the smallest feasible mapping.
func Map(prep *usecase.Prepared, numCores int, p Params) (*Result, error) {
	return MapContext(context.Background(), prep, numCores, p)
}

// MapContext is Map with cancellation: the context is consulted before every
// mesh size of the growth loop, so a server-side deadline or client
// disconnect stops a long infeasible search between attempts. One attempt
// (one mesh size) is the unit of cancellation — it is the smallest step
// after which the partial trace is still meaningful.
func MapContext(ctx context.Context, prep *usecase.Prepared, numCores int, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateInput(prep, numCores); err != nil {
		return nil, err
	}
	// The flow list, routing plans and demand projections do not depend on
	// the fabric: build them once and share them across every fabric tried.
	tpl := newTemplates(prep, numCores, p)
	active := len(tpl.active)
	// A custom fabric is a single fixed instance: no growth loop, one
	// attempt on the loaded topology.
	if !p.Topology.Grows() {
		top, err := p.Topology.ForDim(topology.Dim{}, p.CoresPerSwitch())
		if err != nil {
			return nil, err
		}
		dim := topology.Dim{Rows: top.Rows, Cols: top.Cols}
		if top.MaxCores() < active {
			err := fmt.Errorf("core: %s hosts %d cores, design needs %d", top, top.MaxCores(), active)
			return nil, &InfeasibleError{Fabric: top.String(), Attempts: []Attempt{{Dim: dim, Skipped: true}}, Last: err}
		}
		ev := tpl.on(top)
		m, states, _, err := ev.attempt(nil)
		if err != nil {
			return nil, &InfeasibleError{Fabric: top.String(), Attempts: []Attempt{{Dim: dim, Err: err.Error()}}, Last: err}
		}
		res := &Result{Mapping: m, Attempts: []Attempt{{Dim: dim}}, Stats: computeStats(m, states)}
		if p.Improve {
			res = improveResult(ev, res)
		}
		return res, nil
	}
	var attempts []Attempt
	var lastErr error
	for _, dim := range topology.GrowthSequence(p.MaxMeshDim) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dim.Switches()*p.CoresPerSwitch() < active {
			attempts = append(attempts, Attempt{Dim: dim, Skipped: true})
			continue
		}
		top, err := p.Topology.ForDim(dim, p.CoresPerSwitch())
		if err != nil {
			return nil, err
		}
		ev := tpl.on(top)
		if fabricHook != nil {
			fabricHook(ev)
		}
		m, states, _, err := ev.attempt(nil)
		if err != nil {
			attempts = append(attempts, Attempt{Dim: dim, Err: err.Error()})
			lastErr = err
			continue
		}
		attempts = append(attempts, Attempt{Dim: dim})
		res := &Result{Mapping: m, Attempts: attempts, Stats: computeStats(m, states)}
		if p.Improve {
			res = improveResult(ev, res)
		}
		return res, nil
	}
	return nil, &InfeasibleError{MaxDim: p.MaxMeshDim, Attempts: attempts, Last: lastErr}
}

// fabricHook, when set, observes every per-fabric evaluator the growth loop
// derives; tests use it to check that the fabrics share one template set.
var fabricHook func(*Evaluator)

// InfeasibleError reports that no fabric the search explored could satisfy
// every use-case: no mesh/torus up to the size cap (the outcome the paper
// reports for the WC method on the 40-use-case benchmarks), or the one
// fixed custom fabric.
type InfeasibleError struct {
	// MaxDim is the growth-loop cap; zero when a fixed custom fabric (named
	// by Fabric) was the only candidate.
	MaxDim   int
	Fabric   string
	Attempts []Attempt
	Last     error
}

func (e *InfeasibleError) Error() string {
	if e.Fabric != "" {
		return fmt.Sprintf("core: no feasible mapping on %s (last: %v)", e.Fabric, e.Last)
	}
	return fmt.Sprintf("core: no feasible mapping up to %dx%d mesh (last: %v)", e.MaxDim, e.MaxDim, e.Last)
}

func validateInput(prep *usecase.Prepared, numCores int) error {
	if prep == nil || len(prep.UseCases) == 0 {
		return fmt.Errorf("core: no use-cases")
	}
	for _, u := range prep.UseCases {
		if err := u.Validate(numCores); err != nil {
			return err
		}
	}
	if len(prep.GroupOf) != len(prep.UseCases) {
		return fmt.Errorf("core: prepared groups inconsistent with use-cases")
	}
	return nil
}

// placementFix pins the core placement for configuration-only runs.
type placementFix struct {
	CoreSwitch []int
	CoreNI     []int
}

// flowInst is one flow occurrence in the global work list.
type flowInst struct {
	uc   int
	idx  int
	bw   float64
	lat  float64
	key  traffic.PairKey
	pair int32 // dense pair index (templates.pairList)
	done bool
}

// mapper carries the working state of one attempt on one topology. The
// immutable tables (pair slot demands, routing plans) are the embedded
// Evaluator's; the mutable ones are per attempt, drawn from the
// evaluator's scratch pool or freshly allocated.
type mapper struct {
	*Evaluator

	// One residual state and one configuration per smooth-switching group:
	// group members share a single NoC configuration (paper Section 4), so a
	// reservation made for any member occupies slots for all of them. With
	// no smooth-switching constraints every group is a singleton and this
	// degenerates to the per-use-case data structures of Algorithm 2.
	states []*tdma.State
	// configs holds each group's assignments by dense pair index.
	configs [][]*Assignment

	coreSwitch  []int
	coreNI      []int
	switchCores []int
	niCores     []int

	flows []flowInst

	// remOut/remIn hold, per group and core, the not-yet-reserved slot
	// demand the core will still source or sink. Projected NI occupancy
	// (current reservations + remaining demand of the NI's cores) steers
	// placement: greedy per-flow decisions would otherwise co-locate cores
	// whose later flows overrun the NI. Both tables are nil when the fix
	// places every communicating core — no placement decisions remain, so
	// no projection is ever read.
	remOut [][]int
	remIn  [][]int

	// res and rec are the reservation primitive's scratch: every probe
	// runs in rec's buffers, and a granted reservation is cloned out.
	res *reserveScratch
	rec *resRecord

	journal   []resRecord
	nextOwner int32
	// scanFrom skips the done prefix of the flow list in chooseNext; flows
	// only ever transition to done, so the hint is monotone and safe.
	scanFrom int
}

type resRecord struct {
	group  int
	owner  int32
	path   []int
	start  []int
	key    traffic.PairKey
	demand int
	// idx and hops serve the session's dense bookkeeping: the pair's index
	// in the evaluator's pairList and the mesh-hop count of path.
	idx  int32
	hops int32
}

type placement struct {
	placeSrc, placeDst bool
	srcSwitch          int
	dstSwitch          int
	src, dst           traffic.CoreID
}

// placeFixed initializes the placement arrays and applies the fix, if any
// (validated by the caller through ValidatePlacement).
func (m *mapper) placeFixed(fix *placementFix) {
	m.coreSwitch = make([]int, m.numCores)
	m.coreNI = make([]int, m.numCores)
	for i := range m.coreSwitch {
		m.coreSwitch[i] = -1
		m.coreNI[i] = -1
	}
	m.switchCores = make([]int, m.top.NumSwitches())
	m.niCores = make([]int, m.top.NumSwitches()*m.p.NIsPerSwitch)
	if fix == nil {
		return
	}
	for c, s := range fix.CoreSwitch {
		if s < 0 {
			continue
		}
		ni := fix.CoreNI[c]
		m.coreSwitch[c] = s
		m.coreNI[c] = ni
		m.switchCores[s]++
		m.niCores[ni]++
	}
}

// run performs Algorithm 2 steps 3-7: repeatedly choose the heaviest
// remaining flow (preferring already-mapped endpoints), place and route it
// together with the same-pair flows of every other use-case, until all
// flows are mapped; then assemble the Mapping.
func (m *mapper) run() (*Mapping, error) {
	for {
		fi := m.chooseNext()
		if fi < 0 {
			break
		}
		if err := m.placeAndRoute(fi); err != nil {
			return nil, err
		}
	}
	mapping := &Mapping{
		Topology:   m.top,
		Params:     m.p,
		Prep:       m.prep,
		CoreSwitch: m.coreSwitch,
		CoreNI:     m.coreNI,
	}
	// Per-use-case configurations are restrictions of the group
	// configuration to the use-case's own flows; assignments are shared.
	mapping.Configs = make([]*Config, len(m.prep.UseCases))
	for uc, pairs := range m.ucPairs {
		cfg := &Config{Assignments: make(map[traffic.PairKey]*Assignment, len(pairs))}
		g := m.prep.GroupOf[uc]
		for i, ps := range pairs {
			a := m.configs[g][m.ucPairIdx[uc][i]]
			if a == nil {
				return nil, fmt.Errorf("core: internal: flow %d->%d of use-case %d unassigned", ps.key.Src, ps.key.Dst, uc)
			}
			cfg.Assignments[ps.key] = a
		}
		mapping.Configs[uc] = cfg
	}
	return mapping, nil
}

// projectedNIUsed returns the projected slot usage of an NI link in group g:
// slots already reserved plus the remaining demand of every core attached to
// the NI (and of extraCore, a core about to be attached).
func (m *mapper) projectedNIUsed(ni, g int, role niRole, extraCore int) int {
	link := m.niEgress(ni)
	rem := m.remOut[g]
	if role == roleDst {
		link = m.niIngress(ni)
		rem = m.remIn[g]
	}
	used := m.p.SlotTableSize - m.states[g].FreeSlots(link)
	for c, n := range m.coreNI {
		if n == ni {
			used += rem[c]
		}
	}
	if extraCore >= 0 {
		used += rem[extraCore]
	}
	return used
}

// bestProjectedNI returns the lowest projected usage over the NIs of switch
// s that still have core capacity, or -1 when all NIs are full.
func (m *mapper) bestProjectedNI(s, g int, role niRole, extraCore int) int {
	base := s * m.p.NIsPerSwitch
	best := -1
	for ni := base; ni < base+m.p.NIsPerSwitch; ni++ {
		if m.niCores[ni] >= m.p.CoresPerNI {
			continue
		}
		u := m.projectedNIUsed(ni, g, role, extraCore)
		if best < 0 || u < best {
			best = u
		}
	}
	return best
}

// chooseNext implements Algorithm 2 step 3: the heaviest remaining flow,
// preferring flows between already-mapped cores, then flows with one mapped
// endpoint. The list is bandwidth-sorted, so the first hit per tier is the
// heaviest of that tier.
func (m *mapper) chooseNext() int {
	for m.scanFrom < len(m.flows) && m.flows[m.scanFrom].done {
		m.scanFrom++
	}
	tierBest := [3]int{-1, -1, -1}
	for i := m.scanFrom; i < len(m.flows); i++ {
		f := &m.flows[i]
		if f.done {
			continue
		}
		if m.p.DisableMappedPreference {
			return i
		}
		sm := m.coreSwitch[f.key.Src] >= 0
		dm := m.coreSwitch[f.key.Dst] >= 0
		tier := 2
		switch {
		case sm && dm:
			tier = 0
		case sm || dm:
			tier = 1
		}
		if tierBest[tier] < 0 {
			tierBest[tier] = i
			if tier == 0 {
				break
			}
		}
	}
	for _, t := range tierBest {
		if t >= 0 {
			return t
		}
	}
	return -1
}

// placeAndRoute handles one chosen flow (steps 4-6): try candidate
// placements for any unmapped endpoint; for each, route and reserve the
// flow's pair in every group that communicates over it (the precomputed
// routing plan). The first placement for which all groups succeed is
// committed.
func (m *mapper) placeAndRoute(fi int) error {
	f := m.flows[fi]
	plan := &m.planOf[f.pair]

	placements, err := m.candidatePlacements(f)
	if err != nil {
		return err
	}
	var lastErr error
	for _, pl := range placements {
		if err := m.applyPlacement(pl); err != nil {
			lastErr = err
			continue
		}
		mark := len(m.journal)
		err := m.routeGroups(f.key, f.pair, plan)
		if err == nil {
			for _, i := range plan.allInsts {
				m.flows[i].done = true
			}
			return nil
		}
		lastErr = err
		m.rollback(mark)
		m.undoPlacement(pl)
	}
	return fmt.Errorf("core: flow %d->%d (%.1f MB/s, use-case %q): %v",
		f.key.Src, f.key.Dst, f.bw, m.prep.UseCases[f.uc].Name, lastErr)
}

// candidatePlacements enumerates (src switch, dst switch) options for the
// flow's endpoints, cheapest placements first.
func (m *mapper) candidatePlacements(f flowInst) ([]placement, error) {
	src, dst := f.key.Src, f.key.Dst
	ss, ds := m.coreSwitch[src], m.coreSwitch[dst]
	g := m.prep.GroupOf[f.uc]
	switch {
	case ss >= 0 && ds >= 0:
		return []placement{{srcSwitch: ss, dstSwitch: ds, src: src, dst: dst}}, nil
	case ss >= 0:
		cands := m.rankPlacements(ss, g, dst, -1)
		out := make([]placement, 0, len(cands))
		for _, c := range cands {
			out = append(out, placement{placeDst: true, srcSwitch: ss, dstSwitch: c, src: src, dst: dst})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no switch has NI capacity for core %d", dst)
		}
		return out, nil
	case ds >= 0:
		cands := m.rankPlacements(ds, g, src, -1)
		out := make([]placement, 0, len(cands))
		for _, c := range cands {
			out = append(out, placement{placeSrc: true, srcSwitch: c, dstSwitch: ds, src: src, dst: dst})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no switch has NI capacity for core %d", src)
		}
		return out, nil
	default:
		// Neither endpoint mapped: seed the source at switches with NI
		// headroom near the mesh centre, then rank destinations around each
		// seed.
		seeds := m.seedSwitches(2, src)
		if len(seeds) == 0 {
			return nil, fmt.Errorf("no switch has NI capacity for core %d", src)
		}
		var out []placement
		for _, s := range seeds {
			// The destination may share the seed switch only if two core
			// slots are free there.
			for _, c := range m.rankPlacements(s, g, dst, s) {
				out = append(out, placement{placeSrc: true, placeDst: true, srcSwitch: s, dstSwitch: c, src: src, dst: dst})
				if len(out) >= m.p.PlacementCandidates {
					return out, nil
				}
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no switch pair has NI capacity for cores %d,%d", src, dst)
		}
		return out, nil
	}
}

// Roles for NI-feasibility checks: a source core needs egress slots on its
// NI, a destination core needs ingress slots.
type niRole int

const (
	roleSrc niRole = iota
	roleDst
)

// niChoice selects the NI of switch s best suited to host core: the one
// whose worst projected usage (over all groups and both directions,
// including the core's own remaining demand) is lowest. ok is false when no
// NI of the switch can host the core within the slot table.
func (m *mapper) niChoice(s int, core traffic.CoreID) (ni, worst int, ok bool) {
	base := s * m.p.NIsPerSwitch
	ni, worst = -1, 0
	for cand := base; cand < base+m.p.NIsPerSwitch; cand++ {
		if m.niCores[cand] >= m.p.CoresPerNI {
			continue
		}
		w := 0
		for g := range m.states {
			if u := m.projectedNIUsed(cand, g, roleSrc, int(core)); u > w {
				w = u
			}
			if u := m.projectedNIUsed(cand, g, roleDst, int(core)); u > w {
				w = u
			}
		}
		if ni < 0 || w < worst {
			ni, worst = cand, w
		}
	}
	if ni < 0 || worst > m.p.SlotTableSize {
		return -1, worst, false
	}
	return ni, worst, true
}

// attachPenalty prices attaching core to switch s: the same convex load term
// route.LinkCost applies to mesh links, evaluated on the projected occupancy
// of the NI the core would use. Pricing projected NI load into placement
// makes cores spread to fresh switches before NIs saturate — distance-only
// ranking would pack every core onto the central switches, and no mesh
// growth could ever help.
func (m *mapper) attachPenalty(worst int) float64 {
	occ := float64(worst) / float64(m.p.SlotTableSize)
	if occ > 1 {
		occ = 1
	}
	return m.p.Cost.LoadWeight * occ * occ
}

// switchCand is a candidate switch for an unmapped core with its placement
// score.
type switchCand struct {
	s int
	d float64
}

// byDistance orders candidate switches by ascending score, then switch.
func byDistance(a, b switchCand) int {
	if a.d != b.d {
		if a.d < b.d {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.s, b.s)
}

// rankPlacements orders candidate switches for an unmapped endpoint: only
// switches with an NI that can absorb the core's projected demand qualify,
// scored by least-cost-tree distance from the mapped endpoint's switch under
// the group's residual state plus the projected NI load penalty. seedShared
// marks a switch that must keep room for two cores (used when both endpoints
// are placed at once).
func (m *mapper) rankPlacements(from, group int, core traffic.CoreID, seedShared int) []int {
	// Rank reachability with a 1-slot requirement: per-link feasibility for
	// the actual reservation is re-checked during routing.
	dist, err := route.LeastCostTree(m.top, m.states[group], topology.SwitchID(from), 1, m.p.Cost)
	if err != nil {
		return nil
	}
	var cands []switchCand
	for s := 0; s < m.top.NumSwitches(); s++ {
		free := m.p.CoresPerSwitch() - m.switchCores[s]
		need := 1
		if s == seedShared {
			need = 2 // the seed core also lands here
		}
		if free < need {
			continue
		}
		_, worst, ok := m.niChoice(s, core)
		if !ok {
			continue // no NI on this switch can absorb the core
		}
		d := dist[s]
		if s == from {
			d = 0
		}
		if d < 0 {
			continue // unreachable under current load
		}
		cands = append(cands, switchCand{s, d + m.attachPenalty(worst)})
	}
	slices.SortStableFunc(cands, byDistance)
	if len(cands) > m.p.PlacementCandidates {
		cands = cands[:m.p.PlacementCandidates]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.s
	}
	return out
}

// seedSwitches returns up to n switches that can absorb the core's projected
// demand, scored by distance to the topology's centre plus the projected NI
// load penalty (deterministic seed order for flows with no mapped endpoint).
func (m *mapper) seedSwitches(n int, core traffic.CoreID) []int {
	centre := m.top.Centre()
	var cands []switchCand
	for s := 0; s < m.top.NumSwitches(); s++ {
		if m.switchCores[s] >= m.p.CoresPerSwitch() {
			continue
		}
		_, worst, ok := m.niChoice(s, core)
		if !ok {
			continue
		}
		d := float64(m.top.HopDistance(topology.SwitchID(s), centre))*m.p.Cost.HopCost +
			m.attachPenalty(worst)
		cands = append(cands, switchCand{s, d})
	}
	slices.SortStableFunc(cands, byDistance)
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.s
	}
	return out
}

// applyPlacement tentatively attaches unmapped endpoint cores to their
// switches, choosing the NI with the most projected headroom.
func (m *mapper) applyPlacement(pl placement) error {
	place := func(core traffic.CoreID, s int) error {
		ni, _, ok := m.niChoice(s, core)
		if !ok {
			return fmt.Errorf("switch %d cannot absorb core %d", s, core)
		}
		m.coreSwitch[core] = s
		m.coreNI[core] = ni
		m.switchCores[s]++
		m.niCores[ni]++
		return nil
	}
	if pl.placeSrc {
		if err := place(pl.src, pl.srcSwitch); err != nil {
			return err
		}
	}
	if pl.placeDst {
		if err := place(pl.dst, pl.dstSwitch); err != nil {
			if pl.placeSrc {
				m.unplace(pl.src)
			}
			return err
		}
	}
	return nil
}

func (m *mapper) unplace(core traffic.CoreID) {
	s, ni := m.coreSwitch[core], m.coreNI[core]
	if s >= 0 {
		m.switchCores[s]--
		m.niCores[ni]--
	}
	m.coreSwitch[core] = -1
	m.coreNI[core] = -1
}

func (m *mapper) undoPlacement(pl placement) {
	if pl.placeSrc {
		m.unplace(pl.src)
	}
	if pl.placeDst {
		m.unplace(pl.dst)
	}
}

// routeGroups reserves the pair in every group of its routing plan: the
// reservation is sized by the group's heaviest same-pair flow and must
// satisfy the group's tightest latency constraint; it is recorded once in
// the group's shared state (Algorithm 2 steps 4-6).
func (m *mapper) routeGroups(key traffic.PairKey, pi int32, plan *pairPlan) error {
	for i, g := range plan.groups {
		if err := m.reservePair(g, key, pi, plan.bw[i], plan.lat[i]); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
	}
	return nil
}

// reservePair selects a path and aligned slots for one pair in one group's
// state (via the evaluator's shared reservation primitive) and journals the
// result. The probe runs in the attempt's scratch record; only a granted
// reservation's path and starts are copied out of it.
func (m *mapper) reservePair(g int, key traffic.PairKey, pi int32, bw float64, latencyNS float64) error {
	srcS, dstS := m.coreSwitch[key.Src], m.coreSwitch[key.Dst]
	egress := m.niEgress(m.coreNI[key.Src])
	ingress := m.niIngress(m.coreNI[key.Dst])
	if err := m.reserveSlotsInto(m.res, m.states[g], m.nextOwner, key, srcS, dstS, egress, ingress, bw, latencyNS, m.rec); err != nil {
		return m.reserveError(err, m.res.cands, key, srcS, dstS, bw, latencyNS)
	}
	// One buffer holds both copies; the capped path cannot grow into starts.
	buf := make([]int, len(m.rec.path)+len(m.rec.start))
	np := copy(buf, m.rec.path)
	copy(buf[np:], m.rec.start)
	path, starts := buf[:np:np], buf[np:]
	owner := m.nextOwner
	m.nextOwner++
	m.configs[g][pi] = &Assignment{Path: path, Starts: starts, SlotCount: len(starts)}
	// The pair's projected demand is now realized.
	demand := 0
	if m.remOut != nil {
		demand = m.pairSlots[g][pi]
		m.remOut[g][key.Src] -= demand
		m.remIn[g][key.Dst] -= demand
	}
	m.journal = append(m.journal, resRecord{group: g, owner: owner, path: path, start: starts, key: key,
		demand: demand, idx: pi, hops: m.rec.hops})
	return nil
}

func (m *mapper) rollback(mark int) {
	for i := len(m.journal) - 1; i >= mark; i-- {
		r := m.journal[i]
		m.states[r.group].Release(r.owner, r.path, r.start)
		m.configs[r.group][r.idx] = nil
		if m.remOut != nil {
			m.remOut[r.group][r.key.Src] += r.demand
			m.remIn[r.group][r.key.Dst] += r.demand
		}
	}
	m.journal = m.journal[:mark]
}
