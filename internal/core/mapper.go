package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

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
	res, _, err := MapWithEvaluator(ctx, prep, numCores, p)
	return res, err
}

// MapWithEvaluator is MapContext that also returns the evaluator of the
// result's fabric, built over the templates the growth loop built for the
// design and params. A search that continues from the result scores its
// candidates on it instead of building the same templates again.
func MapWithEvaluator(ctx context.Context, prep *usecase.Prepared, numCores int, p Params) (*Result, *Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := validateInput(prep, numCores); err != nil {
		return nil, nil, err
	}
	// The flow list, routing plans and demand projections do not depend on
	// the fabric: build them once and share them across every fabric tried.
	tpl := newTemplates(prep, numCores, p)
	sc := tpl.newScratch()
	active := len(tpl.active)
	var attempts []Attempt
	var lastErr error
	for _, dim := range topology.GrowthSequence(p.MaxMeshDim) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if dim.Switches()*p.CoresPerSwitch() < active {
			attempts = append(attempts, Attempt{Dim: dim, Skipped: true})
			continue
		}
		top, err := p.Topology.ForDim(dim, p.CoresPerSwitch())
		if err != nil {
			return nil, nil, err
		}
		ev := tpl.on(top)
		if fabricHook != nil {
			fabricHook(ev)
		}
		m, stats, err := ev.attempt(sc)
		if err != nil {
			attempts = append(attempts, Attempt{Dim: dim, Err: err.Error()})
			lastErr = err
			continue
		}
		attempts = append(attempts, Attempt{Dim: dim})
		return &Result{Mapping: m, Attempts: attempts, Stats: stats}, ev, nil
	}
	return nil, nil, &InfeasibleError{MaxDim: p.MaxMeshDim, Topology: p.Topology.Kind, Attempts: attempts, Last: lastErr}
}

// fabricHook, when set, observes every per-fabric evaluator the growth loop
// derives; tests use it to check that the fabrics share one template set.
var fabricHook func(*Evaluator)

// InfeasibleError reports that no fabric the search explored could satisfy
// every use-case: no mesh/torus up to the size cap (the outcome the paper
// reports for the WC method on the 40-use-case benchmarks).
type InfeasibleError struct {
	// MaxDim is the growth-loop cap.
	MaxDim int
	// Topology is the family the growth loop instantiated.
	Topology topology.Kind
	Attempts []Attempt
	Last     error
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("core: no feasible mapping up to %dx%d %s (last: %v)", e.MaxDim, e.MaxDim, e.Topology, e.Last)
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
// Evaluator's; the mutable ones — slot-table states, demand projections,
// the reservation tape and the assignment table — are the embedded scratch
// arena's, and the placement is per attempt. Every table a growth step
// reads is kept current incrementally, so no step rescans the flow list or
// the cores: the next flow is a find-first-set over the tier bitsets, and an
// NI's projected demand is one lookup in niRemOut/niRemIn.
type mapper struct {
	*Evaluator
	*evalScratch

	coreSwitch  []int
	coreNI      []int
	switchCores []int
	niCores     []int

	// tiers holds one bitset over pair indices per preference tier; a pair
	// still to route has its bit set in exactly the tier tierOf names.
	// pairList is in first-occurrence order of the sorted flow list and a
	// pair's instances are routed together, so the lowest set bit of a tier
	// is the pair of the heaviest remaining flow of that tier.
	tiers [tierDone][]uint64
}

// resRecord is one reservation: the probe record of the reservation
// primitive, and a session's live record. start is its start set, a bitset
// of tdma.Words(T) words, and slots the number of starts in it.
type resRecord struct {
	group int
	path  []int
	start []uint64
	slots int32
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
	configs, err := m.configsOnTape(m.evalScratch)
	if err != nil {
		return nil, err
	}
	return &Mapping{
		Topology:   m.top,
		Params:     m.p,
		Prep:       m.prep,
		CoreSwitch: m.coreSwitch,
		CoreNI:     m.coreNI,
		Configs:    configs,
	}, nil
}

// configsOf materializes the per-use-case configurations from a dense
// [group][pair] table of positions in asn (index + 1; zero where the group
// holds no reservation for the pair): a use-case's configuration is the
// restriction of its group's assignments to the use-case's own pairs, and
// the use-cases of a group share the Assignment values. The mapper,
// Evaluate and Session.Result all build a Mapping's Configs here.
func (ev *Evaluator) configsOf(at [][]int32, asn []Assignment) ([]*Config, error) {
	configs := make([]*Config, len(ev.prep.UseCases))
	cfgs := make([]Config, len(configs))
	for uc, pairs := range ev.ucPairs {
		cfg := &cfgs[uc]
		cfg.Assignments = make(map[traffic.PairKey]*Assignment, len(pairs))
		g := ev.prep.GroupOf[uc]
		for i, ps := range pairs {
			k := at[g][ev.ucPairIdx[uc][i]]
			if k == 0 {
				return nil, fmt.Errorf("core: internal: flow %d->%d of use-case %d unassigned", ps.key.Src, ps.key.Dst, uc)
			}
			cfg.Assignments[ps.key] = &asn[k-1]
		}
		configs[uc] = cfg
	}
	return configs, nil
}

// appendAssignment copies a reservation's path and the starts of its start
// set onto buf, which must have room for both (so earlier copies never
// move), and appends the assignment over the copies to asn. Both slices are
// capped: appending to one cannot overwrite the other or a neighbour.
func appendAssignment(asn []Assignment, buf, path []int, starts []uint64) ([]Assignment, []int) {
	p := len(buf) + len(path)
	buf = tdma.AppendStarts(append(buf, path...), starts)
	s := len(buf)
	return append(asn, Assignment{Path: buf[p-len(path) : p : p], Starts: buf[p:s:s], SlotCount: s - p}), buf
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
	// Neither the placement attempts nor the routing below ranks switches,
	// so the candidates stay intact in the arena while they are tried.
	var lastErr error
	for _, pl := range placements {
		if err := m.applyPlacement(pl); err != nil {
			lastErr = err
			continue
		}
		mark := len(m.journal)
		err := m.routeGroups(pi, plan)
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

// placementCandidates bounds how many candidate switches are examined when
// placing an unmapped core.
const placementCandidates = 6

// candidatePlacements enumerates (src switch, dst switch) options for the
// flow's endpoints, cheapest placements first, into the arena's placement
// buffer; the next call overwrites them.
func (m *mapper) candidatePlacements(f flowInst) ([]placement, error) {
	src, dst := f.key.Src, f.key.Dst
	ss, ds := m.coreSwitch[src], m.coreSwitch[dst]
	g := m.prep.GroupOf[f.uc]
	out := m.places[:0]
	defer func() { m.places = out[:0] }()
	switch {
	case ss >= 0 && ds >= 0:
		return append(out, placement{srcSwitch: ss, dstSwitch: ds, src: src, dst: dst}), nil
	case ss >= 0:
		for _, c := range m.rankPlacements(ss, g, dst, -1) {
			out = append(out, placement{placeDst: true, srcSwitch: ss, dstSwitch: c.s, src: src, dst: dst})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no switch has NI capacity for core %d", dst)
		}
		return out, nil
	case ds >= 0:
		for _, c := range m.rankPlacements(ds, g, src, -1) {
			out = append(out, placement{placeSrc: true, srcSwitch: c.s, dstSwitch: ds, src: src, dst: dst})
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
		for _, seed := range seeds {
			// The destination may share the seed switch only if two core
			// slots are free there.
			for _, c := range m.rankPlacements(seed.s, g, dst, seed.s) {
				out = append(out, placement{placeSrc: true, placeDst: true, srcSwitch: seed.s, dstSwitch: c.s, src: src, dst: dst})
				if len(out) >= placementCandidates {
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
// are placed at once). The ranking is the arena's ranked buffer, which the
// next call overwrites.
func (m *mapper) rankPlacements(from, group int, core traffic.CoreID, seedShared int) []switchCand {
	// Rank reachability with a 1-slot requirement: per-link feasibility for
	// the actual reservation is re-checked during routing.
	dist, err := m.paths.LeastCostTreeInto(m.res.route, m.states[group], topology.SwitchID(from), 1, m.p.Cost)
	if err != nil {
		return nil
	}
	cands := m.ranked[:0]
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
	m.ranked = cands
	slices.SortStableFunc(cands, byDistance)
	return cands[:min(len(cands), placementCandidates)]
}

// seedSwitches returns up to n switches that can absorb the core's projected
// demand, scored by distance to the topology's centre plus the projected NI
// load penalty (deterministic seed order for flows with no mapped endpoint).
// The seeds are the arena's seeds buffer, which the next call overwrites.
func (m *mapper) seedSwitches(n int, core traffic.CoreID) []switchCand {
	centre := m.top.Centre()
	cands := m.seeds[:0]
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
	m.seeds = cands
	slices.SortStableFunc(cands, byDistance)
	return cands[:min(len(cands), n)]
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
	for g := range m.niRemOut {
		m.niRemOut[g][ni] += m.remOut[g][core]
		m.niRemIn[g][ni] += m.remIn[g][core]
	}
}

func (m *mapper) unplace(core traffic.CoreID) {
	s, ni := m.coreSwitch[core], m.coreNI[core]
	if s >= 0 {
		m.switchCores[s]--
		m.niCores[ni]--
		for g := range m.niRemOut {
			m.niRemOut[g][ni] -= m.remOut[g][core]
			m.niRemIn[g][ni] -= m.remIn[g][core]
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

// routeGroups reserves pair pi in every group of its routing plan: the
// reservation is sized by the group's heaviest same-pair flow and must
// satisfy the group's tightest latency constraint; it is recorded once in
// the group's shared state (Algorithm 2 steps 4-6).
func (m *mapper) routeGroups(pi int32, plan *pairPlan) error {
	for i, g := range plan.groups {
		if err := m.reservePair(g, pi, plan.latSlots[i]); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
	}
	return nil
}

// reservePair selects a path and aligned slots for pair pi in group g's
// state (via the evaluator's shared reservation primitive) and records the
// grant on the tape. The probe runs in the attempt's scratch record.
func (m *mapper) reservePair(g int, pi int32, latBudget int) error {
	key, slots := m.pairList[pi], m.pairSlots[g][pi]
	if err := m.reserveSlotsInto(&m.res, m.states[g], m.coreSwitch, m.coreNI, key, slots, latBudget, &m.rec); err != nil {
		return m.reserveError(err, m.res.cands, m.coreSwitch, g, pi)
	}
	m.grant(g, pi)
	// The pair's projected demand is now realized.
	m.remOut[g][key.Src] -= slots
	m.remIn[g][key.Dst] -= slots
	m.niRemOut[g][m.coreNI[key.Src]] -= slots
	m.niRemIn[g][m.coreNI[key.Dst]] -= slots
	return nil
}

// rollback returns the demand of the reservations journaled after mark to
// the projections and unwinds them off the tape.
func (m *mapper) rollback(mark int) {
	for _, e := range m.journal[mark:] {
		key, slots := m.pairList[e.idx], m.pairSlots[e.group][e.idx]
		m.remOut[e.group][key.Src] += slots
		m.remIn[e.group][key.Dst] += slots
		m.niRemOut[e.group][m.coreNI[key.Src]] += slots
		m.niRemIn[e.group][m.coreNI[key.Dst]] += slots
	}
	m.unwind(mark)
}
