package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
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
// reports for the WC method on the 40-use-case benchmarks).
type InfeasibleError struct {
	// MaxDim is the growth-loop cap.
	MaxDim   int
	Attempts []Attempt
	Last     error
}

func (e *InfeasibleError) Error() string {
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

// flowInst is one flow occurrence in the bandwidth-sorted template list.
// Attempts only read it: what is still to route is tracked per pair, in the
// mapper's tier bitsets.
type flowInst struct {
	uc   int
	idx  int
	bw   float64
	lat  float64
	key  traffic.PairKey
	pair int32 // dense pair index (templates.pairList)
}

// Preference tiers of Algorithm 2 step 3, by how many endpoints of a pair are
// already mapped; tierDone marks a routed pair.
const (
	tierBoth uint8 = iota
	tierOne
	tierNone
	tierDone
)

// mapper carries the working state of one attempt on one topology. The
// immutable tables (pair slot demands, routing plans) are the embedded
// Evaluator's; the mutable ones are per attempt, drawn from the
// evaluator's scratch pool or freshly allocated. Every table a growth step
// reads is kept current incrementally, so no step rescans the flow list or
// the cores: the next flow is a find-first-set over the tier bitsets, and an
// NI's projected demand is one lookup in niRemOut/niRemIn.
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

	// tiers holds one bitset over pair indices per preference tier; a pair
	// still to route has its bit set in exactly the tier tierOf names.
	// pairList is in first-occurrence order of the sorted flow list and a
	// pair's instances are routed together, so the lowest set bit of a tier
	// is the pair of the heaviest remaining flow of that tier.
	tiers  [tierDone][]uint64
	tierOf []uint8

	// remOut/remIn hold, per group and core, the not-yet-reserved slot
	// demand the core will still source or sink. Projected NI occupancy
	// (current reservations + remaining demand of the NI's cores) steers
	// placement: greedy per-flow decisions would otherwise co-locate cores
	// whose later flows overrun the NI. Both tables are nil when the fix
	// places every communicating core — no placement decisions remain, so
	// no projection is ever read.
	remOut [][]int
	remIn  [][]int
	// niRemOut/niRemIn hold, per group and NI, the sum of remOut/remIn over
	// the cores attached to the NI; nil exactly when remOut is.
	niRemOut [][]int
	niRemIn  [][]int

	// res and rec are the reservation primitive's scratch: every probe
	// runs in rec's buffers, and a granted reservation is cloned out.
	res *reserveScratch
	rec *resRecord

	journal []resRecord
}

type resRecord struct {
	group  int
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

// placeFixed initializes the placement arrays, applies the fix, if any
// (validated by the caller through ValidatePlacement), and sorts every pair
// into its preference tier.
func (m *mapper) placeFixed(fix *placementFix) {
	m.coreSwitch = make([]int, m.numCores)
	m.coreNI = make([]int, m.numCores)
	for i := range m.coreSwitch {
		m.coreSwitch[i] = -1
		m.coreNI[i] = -1
	}
	m.switchCores = make([]int, m.top.NumSwitches())
	m.niCores = make([]int, m.top.NumSwitches()*m.p.NIsPerSwitch)
	if fix != nil {
		for c, s := range fix.CoreSwitch {
			if s >= 0 {
				m.attach(traffic.CoreID(c), s, fix.CoreNI[c])
			}
		}
	}
	for pi := range m.pairList {
		t := m.tierFor(int32(pi))
		m.tierOf[pi] = t
		m.tiers[t][pi>>6] |= 1 << (pi & 63)
	}
}

// tierFor is pair pi's preference tier under the current placement.
func (m *mapper) tierFor(pi int32) uint8 {
	key := m.pairList[pi]
	t := tierNone
	if m.coreSwitch[key.Src] >= 0 {
		t--
	}
	if m.coreSwitch[key.Dst] >= 0 {
		t--
	}
	return t
}

// moveTier moves a pair still to route into tier t (tierDone retires it).
func (m *mapper) moveTier(pi int32, t uint8) {
	if old := m.tierOf[pi]; old != tierDone {
		m.tiers[old][pi>>6] &^= 1 << (pi & 63)
	}
	m.tierOf[pi] = t
	if t != tierDone {
		m.tiers[t][pi>>6] |= 1 << (pi & 63)
	}
}

// retier re-sorts the pairs still to route that touch core, which has just
// been placed for good.
func (m *mapper) retier(core traffic.CoreID) {
	for _, q := range m.pairsOf[core] {
		if t := m.tierOf[q]; t != tierDone {
			if nt := m.tierFor(q); nt != t {
				m.moveTier(q, nt)
			}
		}
	}
}

// run performs Algorithm 2 steps 3-7: repeatedly choose the heaviest
// remaining flow (preferring already-mapped endpoints), place and route it
// together with the same-pair flows of every other use-case, until all
// flows are mapped; then assemble the Mapping.
func (m *mapper) run() (*Mapping, error) {
	for {
		pi := m.chooseNext()
		if pi < 0 {
			break
		}
		if err := m.placeAndRoute(pi); err != nil {
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
// the NI (and of extraCore, a core about to be attached — counted again if
// it already is).
func (m *mapper) projectedNIUsed(ni, g int, role niRole, extraCore int) int {
	link := m.niEgress(ni)
	niRem, rem := m.niRemOut[g], m.remOut[g]
	if role == roleDst {
		link = m.niIngress(ni)
		niRem, rem = m.niRemIn[g], m.remIn[g]
	}
	used := m.p.SlotTableSize - m.states[g].FreeSlots(link) + niRem[ni]
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

// chooseNext implements Algorithm 2 step 3: the pair of the heaviest
// remaining flow, preferring flows between already-mapped cores, then flows
// with one mapped endpoint — the lowest set bit of the first non-empty tier.
// It returns -1 when every pair is routed.
func (m *mapper) chooseNext() int32 {
	if m.p.DisableMappedPreference {
		for w := range m.tiers[tierBoth] {
			if x := m.tiers[tierBoth][w] | m.tiers[tierOne][w] | m.tiers[tierNone][w]; x != 0 {
				return int32(w<<6 + bits.TrailingZeros64(x))
			}
		}
		return -1
	}
	for _, set := range m.tiers {
		for w, x := range set {
			if x != 0 {
				return int32(w<<6 + bits.TrailingZeros64(x))
			}
		}
	}
	return -1
}

// placeAndRoute handles pair pi (steps 4-6), driven by its heaviest flow:
// try candidate placements for any unmapped endpoint; for each, route and
// reserve the pair in every group that communicates over it (the
// precomputed routing plan). The first placement for which all groups
// succeed is committed.
func (m *mapper) placeAndRoute(pi int32) error {
	plan := &m.planOf[pi]
	f := m.flowsTpl[plan.allInsts[0]]

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
		err := m.routeGroups(f.key, pi, plan)
		if err == nil {
			m.moveTier(pi, tierDone)
			if pl.placeSrc {
				m.retier(pl.src)
			}
			if pl.placeDst {
				m.retier(pl.dst)
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
		m.attach(core, s, ni)
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

// attach places core on switch s and NI ni, adding its remaining demand to
// the NI's sums.
func (m *mapper) attach(core traffic.CoreID, s, ni int) {
	m.coreSwitch[core] = s
	m.coreNI[core] = ni
	m.switchCores[s]++
	m.niCores[ni]++
	if m.remOut != nil {
		for g := range m.niRemOut {
			m.niRemOut[g][ni] += m.remOut[g][core]
			m.niRemIn[g][ni] += m.remIn[g][core]
		}
	}
}

func (m *mapper) unplace(core traffic.CoreID) {
	s, ni := m.coreSwitch[core], m.coreNI[core]
	if s >= 0 {
		m.switchCores[s]--
		m.niCores[ni]--
		if m.remOut != nil {
			for g := range m.niRemOut {
				m.niRemOut[g][ni] -= m.remOut[g][core]
				m.niRemIn[g][ni] -= m.remIn[g][core]
			}
		}
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
		if err := m.reservePair(g, key, pi, plan.bw[i], plan.latSlots[i]); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
	}
	return nil
}

// reservePair selects a path and aligned slots for one pair in one group's
// state (via the evaluator's shared reservation primitive) and journals the
// result. The probe runs in the attempt's scratch record; only a granted
// reservation's path and starts are copied out of it.
func (m *mapper) reservePair(g int, key traffic.PairKey, pi int32, bw float64, latBudget int) error {
	srcS, dstS := m.coreSwitch[key.Src], m.coreSwitch[key.Dst]
	egress := m.niEgress(m.coreNI[key.Src])
	ingress := m.niIngress(m.coreNI[key.Dst])
	slots0 := m.pairSlots[g][pi]
	if err := m.reserveSlotsInto(m.res, m.states[g], srcS, dstS, egress, ingress, slots0, latBudget, m.rec); err != nil {
		return m.reserveError(err, m.res.cands, key, srcS, dstS, slots0, latBudget, bw)
	}
	// One buffer holds both copies; the capped path cannot grow into starts.
	buf := make([]int, len(m.rec.path)+len(m.rec.start))
	np := copy(buf, m.rec.path)
	copy(buf[np:], m.rec.start)
	path, starts := buf[:np:np], buf[np:]
	m.configs[g][pi] = &Assignment{Path: path, Starts: starts, SlotCount: len(starts)}
	// The pair's projected demand is now realized.
	demand := 0
	if m.remOut != nil {
		demand = slots0
		m.remOut[g][key.Src] -= demand
		m.remIn[g][key.Dst] -= demand
		m.niRemOut[g][m.coreNI[key.Src]] -= demand
		m.niRemIn[g][m.coreNI[key.Dst]] -= demand
	}
	m.journal = append(m.journal, resRecord{group: g, path: path, start: starts, key: key,
		demand: demand, idx: pi, hops: m.rec.hops})
	return nil
}

func (m *mapper) rollback(mark int) {
	for i := len(m.journal) - 1; i >= mark; i-- {
		r := m.journal[i]
		m.states[r.group].Release(0, r.path, r.start)
		m.configs[r.group][r.idx] = nil
		if m.remOut != nil {
			m.remOut[r.group][r.key.Src] += r.demand
			m.remIn[r.group][r.key.Dst] += r.demand
			m.niRemOut[r.group][m.coreNI[r.key.Src]] += r.demand
			m.niRemIn[r.group][m.coreNI[r.key.Dst]] += r.demand
		}
	}
	m.journal = m.journal[:mark]
}
