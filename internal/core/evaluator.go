package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"nocmap/internal/route"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// Evaluator is the reusable evaluation engine for one (prepared design,
// topology, params) triple. Scoring a placement from scratch re-validates
// the inputs, rebuilds the bandwidth-sorted flow work list and reallocates
// every group's TDMA slot tables; a search engine scoring thousands of
// candidate placements on the same fabric would pay that fixed cost per
// candidate. The Evaluator pays it once:
//
//   - inputs (params, use-cases, topology) are validated at construction;
//   - the flow work list, per-pair routing plans (group order, reservation
//     bandwidth and latency) and NI demand projections are precomputed —
//     they do not depend on the fabric, so evaluators of one design on
//     different fabrics share them (see On);
//   - candidate mesh paths are cached per switch pair (route.Table);
//   - TDMA states, tier bitsets and demand sums live in a scratch arena
//     that is reset between evaluations instead of reallocated.
//
// An Evaluator is immutable after construction and safe for concurrent use:
// every Evaluate call draws its mutable state from an internal pool, so the
// portfolio's workers share one Evaluator (and its precomputation) per
// topology. Delta evaluation of single moves is layered on top via Session.
type Evaluator struct {
	*templates
	top *topology.Topology

	meshLinks  int
	totalLinks int

	// paths caches candidate mesh paths per switch pair.
	paths *route.Table

	pool sync.Pool // *evalScratch
}

// templates is the topology-independent precomputation of one (prepared
// design, params) pair. It is immutable once built and shared by every
// evaluator of the design: the growth loop builds it once per request and
// derives a cheap per-fabric evaluator for each mesh size it tries.
type templates struct {
	prep     *usecase.Prepared
	numCores int
	p        Params

	// flowsTpl is the bandwidth-sorted global flow list (Algorithm 2 step
	// 2), sorted once and only read by evaluations.
	flowsTpl []flowInst
	// pairList holds the distinct pairs in first-occurrence (descending
	// bandwidth) order — the order the fully-fixed configuration phase
	// routes them in. A pair's position in it is its dense index, which
	// every per-pair table below is indexed by.
	pairList []traffic.PairKey
	// planOf precomputes, per pair, everything the routing step derives from
	// the flow list alone: the group order and each group's reservation
	// bandwidth and latency budget.
	planOf []pairPlan
	// pairSlots holds, per group and pair, the slot demand of the group's
	// heaviest same-pair flow (zero where the group does not use the pair).
	pairSlots [][]int
	// remOutTpl/remInTpl are the initial per-group, per-core not-yet-routed
	// slot demands; partial-placement evaluations copy and consume them.
	remOutTpl, remInTpl [][]int
	// active lists the cores that appear in at least one flow.
	active []int
	// groupPairs lists, per group, its pairs with their bandwidth-driven
	// slot demand (pairSlots flattened for cheap deterministic iteration in
	// the session's capacity prechecks).
	groupPairs [][]pairDemand
	// ucPairs lists, per use-case, its distinct pairs with the flow
	// bandwidth — the iteration computeStats performs over Config maps,
	// precomputed so sessions can recompute stats without building Configs;
	// ucPairIdx mirrors it as pair indices.
	ucPairs   [][]ucPairStat
	ucPairIdx [][]int32
	// pairsOf lists per core the (ascending) indices of the pairs touching
	// it, so a move evaluation finds its affected pairs without scanning.
	pairsOf [][]int32
}

// pairPlan is the placement-independent routing plan of one directed pair:
// the smooth-switching groups that communicate over it in reservation order
// (driving group first, then descending heaviest-flow bandwidth), each with
// its reservation bandwidth and the latency budget in whole slots of its
// tightest latency bound (negative: unconstrained). The group's slot demand
// is pairSlots[g][pair].
type pairPlan struct {
	groups   []int
	bw       []float64
	latSlots []int
	allInsts []int // indices into the flow list, every instance of the pair
}

type ucPairStat struct {
	key traffic.PairKey
	bw  float64
}

// pairDemand is one pair of one group's routing worklist: its slot demand
// and latency budget in slots (copied from pairSlots and the pair's plan
// for cheap per-group iteration), and the pair's dense index.
type pairDemand struct {
	key      traffic.PairKey
	idx      int32
	slots    int
	latSlots int
}

// evalScratch is the reusable mutable state of one evaluation.
type evalScratch struct {
	states []*tdma.State
	// tierBits backs the mapper's three tier bitsets; tierOf its per-pair
	// tiers.
	tierBits          []uint64
	tierOf            []uint8
	remOut, remIn     [][]int
	niRemOut, niRemIn [][]int
	journal           []resRecord
	// res and rec are the reservation primitive's working state: the
	// route-query scratch and the probe record whose buffers a granted
	// reservation is cloned out of.
	res reserveScratch
	rec resRecord
}

// NewEvaluator validates the inputs once and precomputes the shared
// evaluation state. The topology is used as given — mesh or torus, of any
// size.
func NewEvaluator(prep *usecase.Prepared, numCores int, top *topology.Topology, p Params) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateInput(prep, numCores); err != nil {
		return nil, err
	}
	if top == nil {
		return nil, errNoTopology
	}
	return newTemplates(prep, numCores, p).on(top), nil
}

var errNoTopology = fmt.Errorf("core: evaluator needs a topology")

// On returns an evaluator of the same design and params on another fabric.
// It shares the receiver's topology-independent tables, so only the
// fabric-specific part — link counts, the candidate-path table and the
// scratch pool — is built.
func (ev *Evaluator) On(top *topology.Topology) (*Evaluator, error) {
	if top == nil {
		return nil, errNoTopology
	}
	return ev.templates.on(top), nil
}

// on builds the per-fabric evaluator over the (validated) templates.
func (t *templates) on(top *topology.Topology) *Evaluator {
	ev := &Evaluator{templates: t, top: top}
	ev.meshLinks = top.NumLinks()
	ev.totalLinks = ev.meshLinks + 2*top.NumSwitches()*t.p.NIsPerSwitch
	ev.paths = route.NewTable(top, t.p.Cost)
	return ev
}

// Topology returns the fabric the evaluator scores placements on.
func (ev *Evaluator) Topology() *topology.Topology { return ev.top }

// flowOrder is the global work-list order: descending bandwidth, then
// ascending pair, then ascending use-case.
func flowOrder(a, b flowInst) int {
	if a.bw != b.bw {
		if a.bw > b.bw {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.key.Src, b.key.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.key.Dst, b.key.Dst); c != 0 {
		return c
	}
	return cmp.Compare(a.uc, b.uc)
}

// groupStat accumulates one group's heaviest bandwidth and tightest latency
// bound over the instances of one pair.
type groupStat struct {
	g      int
	maxBW  float64
	minLat float64 // -1 = unconstrained
}

// newTemplates assembles the sorted flow list, pair index, routing plans
// and demand projections (the work buildFlows used to redo per attempt).
// The inputs must be validated. Every per-pair, per-group, per-core and
// per-use-case table is carved out of one backing array (buckets, grid),
// so the build costs a few dozen allocations whatever the design's size.
func newTemplates(prep *usecase.Prepared, numCores int, p Params) *templates {
	t := &templates{prep: prep, numCores: numCores, p: p}
	ucFlows := make([]int, len(prep.UseCases))
	for uc, u := range prep.UseCases {
		ucFlows[uc] = len(u.Flows)
	}
	t.flowsTpl = make([]flowInst, 0, sum(ucFlows))
	for uc, u := range prep.UseCases {
		for idx, f := range u.Flows {
			t.flowsTpl = append(t.flowsTpl, flowInst{
				uc: uc, idx: idx, bw: f.BandwidthMBs, lat: f.MaxLatencyNS, key: f.Key(),
			})
		}
	}
	// flowOrder is total (use-case validation forbids duplicate pairs), so
	// an unstable sort yields the one order a stable sort would.
	slices.SortFunc(t.flowsTpl, flowOrder)
	pairIdx := make(map[traffic.PairKey]int32)
	var pairInsts []int
	for i := range t.flowsTpl {
		f := &t.flowsTpl[i]
		pi, seen := pairIdx[f.key]
		if !seen {
			pi = int32(len(t.pairList))
			pairIdx[f.key] = pi
			t.pairList = append(t.pairList, f.key)
			pairInsts = append(pairInsts, 0)
		}
		f.pair = pi
		pairInsts[pi]++
	}
	numPairs := len(t.pairList)
	t.planOf = make([]pairPlan, numPairs)
	insts := buckets[int](pairInsts)
	for i, f := range t.flowsTpl {
		insts[f.pair] = append(insts[f.pair], i)
	}
	// Demand projection templates: per group, the heaviest flow per pair
	// determines the reservation size; each core's remaining demand is the
	// sum over its pairs.
	numGroups := len(prep.Groups)
	t.pairSlots = grid[int](numGroups, numPairs)
	t.remOutTpl = grid[int](numGroups, numCores)
	t.remInTpl = grid[int](numGroups, numCores)
	for _, f := range t.flowsTpl {
		g := prep.GroupOf[f.uc]
		if n := tdma.SlotsNeeded(f.bw, p.SlotBandwidthMBs()); n > t.pairSlots[g][f.pair] {
			t.pairSlots[g][f.pair] = n
		}
	}
	for g := 0; g < numGroups; g++ {
		for pi, n := range t.pairSlots[g] {
			t.remOutTpl[g][t.pairList[pi].Src] += n
			t.remInTpl[g][t.pairList[pi].Dst] += n
		}
	}
	// Routing plans. The driving group is the group of the pair's heaviest
	// instance (the flow chooseNext selects — same-pair flows share a
	// preference tier, so the sorted list's first instance always drives);
	// the remaining groups follow in descending order of their heaviest
	// same-pair flow, matching Algorithm 2 step 6. A pair has at most one
	// plan entry per instance, so the flat backing arrays never regrow.
	groups := make([]int, 0, len(t.flowsTpl))
	bws := make([]float64, 0, len(t.flowsTpl))
	lats := make([]int, 0, len(t.flowsTpl))
	groupPairs := make([]int, numGroups)
	var stats []groupStat
	for pi := range t.planOf {
		stats = stats[:0]
		for _, i := range insts[pi] {
			f := t.flowsTpl[i]
			g := prep.GroupOf[f.uc]
			k := 0
			for k < len(stats) && stats[k].g != g {
				k++
			}
			if k == len(stats) {
				stats = append(stats, groupStat{g: g, minLat: -1})
			}
			s := &stats[k]
			if f.bw > s.maxBW {
				s.maxBW = f.bw
			}
			if f.lat > 0 && (s.minLat < 0 || f.lat < s.minLat) {
				s.minLat = f.lat
			}
		}
		// The first instance is the heaviest, so its group is stats[0].
		slices.SortFunc(stats[1:], func(a, b groupStat) int {
			if a.maxBW != b.maxBW {
				if a.maxBW > b.maxBW {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.g, b.g)
		})
		from := len(groups)
		for _, s := range stats {
			groups = append(groups, s.g)
			bws = append(bws, s.maxBW)
			lats = append(lats, p.LatencyBudgetSlots(s.minLat))
			groupPairs[s.g]++
		}
		to := len(groups)
		t.planOf[pi] = pairPlan{groups: groups[from:to:to], bw: bws[from:to:to], latSlots: lats[from:to:to], allInsts: insts[pi]}
	}
	// Per-core incidence lists the session's move evaluation walks instead
	// of scanning every pair.
	corePairs := make([]int, numCores)
	for _, key := range t.pairList {
		corePairs[key.Src]++
		if key.Dst != key.Src {
			corePairs[key.Dst]++
		}
	}
	t.pairsOf = buckets[int32](corePairs)
	for i, key := range t.pairList {
		t.pairsOf[key.Src] = append(t.pairsOf[key.Src], int32(i))
		if key.Dst != key.Src {
			t.pairsOf[key.Dst] = append(t.pairsOf[key.Dst], int32(i))
		}
	}
	// Per-group routing worklists in global (bandwidth-sorted) pair order.
	// With a fixed placement the groups never interact — each owns its slot
	// tables and candidate costs read only its own state — so evaluating a
	// group against this list alone reproduces exactly what a full pass
	// would grant it. The session's per-group rebuild fallback rests on
	// this decomposition.
	t.groupPairs = buckets[pairDemand](groupPairs)
	for pi, key := range t.pairList {
		plan := &t.planOf[pi]
		for i, g := range plan.groups {
			t.groupPairs[g] = append(t.groupPairs[g], pairDemand{
				key: key, idx: int32(pi), slots: t.pairSlots[g][pi], latSlots: plan.latSlots[i],
			})
		}
	}
	// Per-use-case stat iteration: distinct pairs with the flow bandwidth
	// (use-case validation forbids duplicate pairs, so flows ≡ pairs).
	t.ucPairs = buckets[ucPairStat](ucFlows)
	t.ucPairIdx = buckets[int32](ucFlows)
	for uc, u := range prep.UseCases {
		for _, f := range u.Flows {
			t.ucPairs[uc] = append(t.ucPairs[uc], ucPairStat{key: f.Key(), bw: f.BandwidthMBs})
			t.ucPairIdx[uc] = append(t.ucPairIdx[uc], pairIdx[f.Key()])
		}
	}
	seen := make([]bool, numCores)
	for _, f := range t.flowsTpl {
		seen[f.key.Src] = true
		seen[f.key.Dst] = true
	}
	for c, ok := range seen {
		if ok {
			t.active = append(t.active, c)
		}
	}
	return t
}

// buckets returns len(counts) empty slices over one backing array, bucket
// i with room for exactly counts[i] elements: appends up to that count
// never reallocate, and an append past it cannot run into a neighbour.
func buckets[T any](counts []int) [][]T {
	flat := make([]T, sum(counts))
	out := make([][]T, len(counts))
	off := 0
	for i, n := range counts {
		out[i] = flat[off : off : off+n]
		off += n
	}
	return out
}

// grid returns a rows×cols zero matrix over one backing array.
func grid[T any](rows, cols int) [][]T {
	flat := make([]T, rows*cols)
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// ValidatePlacement checks a fixed placement against the evaluator's
// topology and NI shape without running the configuration phase: slice
// lengths, switch/NI ranges, NI-on-switch consistency and per-NI core
// capacity. Cores with a negative switch are unattached and skipped.
func (ev *Evaluator) ValidatePlacement(coreSwitch, coreNI []int) error {
	if len(coreSwitch) != ev.numCores || len(coreNI) != ev.numCores {
		return fmt.Errorf("core: fixed placement has wrong length (switch %d, NI %d entries, design has %d cores)",
			len(coreSwitch), len(coreNI), ev.numCores)
	}
	numNIs := ev.top.NumSwitches() * ev.p.NIsPerSwitch
	seats := make([]int, numNIs)
	for c := 0; c < ev.numCores; c++ {
		s, ni := coreSwitch[c], coreNI[c]
		if s < 0 {
			continue
		}
		if s >= ev.top.NumSwitches() || ni < 0 || ni >= numNIs || ni/ev.p.NIsPerSwitch != s {
			return fmt.Errorf("core: fixed placement of core %d (switch %d, NI %d) invalid", c, s, ni)
		}
		seats[ni]++
		if seats[ni] > ev.p.CoresPerNI {
			return fmt.Errorf("core: fixed placement overfills NI %d (%d cores, capacity %d)", ni, seats[ni], ev.p.CoresPerNI)
		}
	}
	return nil
}

// covered reports whether the fix places every communicating core, which
// lets the evaluation skip the NI demand projections entirely (they only
// steer the placement of unmapped cores).
func (ev *Evaluator) covered(fix *placementFix) bool {
	if fix == nil {
		return false
	}
	for _, c := range ev.active {
		if fix.CoreSwitch[c] < 0 {
			return false
		}
	}
	return true
}

// getScratch draws (or creates) a clean scratch arena.
func (ev *Evaluator) getScratch() *evalScratch {
	if sc, ok := ev.pool.Get().(*evalScratch); ok {
		return sc
	}
	sc := &evalScratch{}
	sc.states = make([]*tdma.State, len(ev.prep.Groups))
	for g := range sc.states {
		st, err := tdma.NewState(ev.totalLinks, ev.p.SlotTableSize)
		if err != nil {
			// Params were validated at construction; NewState cannot fail.
			panic(fmt.Sprintf("core: internal: %v", err))
		}
		sc.states[g] = st
	}
	sc.tierBits = make([]uint64, int(tierDone)*((len(ev.pairList)+63)/64))
	sc.tierOf = make([]uint8, len(ev.pairList))
	sc.res.route = route.NewScratch()
	return sc
}

// putScratch releases every reservation the evaluation journaled (restoring
// the states to all-free without an O(links*slots) wipe) and returns the
// arena to the pool.
func (ev *Evaluator) putScratch(sc *evalScratch) {
	for i := len(sc.journal) - 1; i >= 0; i-- {
		r := sc.journal[i]
		sc.states[r.group].Release(0, r.path, r.start)
	}
	sc.journal = sc.journal[:0]
	ev.pool.Put(sc)
}

// mapperFor assembles a mapper over the scratch arena. Immutable tables are
// shared with the evaluator; mutable ones are copied from the templates.
func (ev *Evaluator) mapperFor(sc *evalScratch, fix *placementFix) *mapper {
	m := &mapper{Evaluator: ev, states: sc.states, journal: sc.journal[:0], res: &sc.res, rec: &sc.rec}
	clear(sc.tierBits)
	words := len(sc.tierBits) / len(m.tiers)
	for t := range m.tiers {
		m.tiers[t] = sc.tierBits[t*words : (t+1)*words]
	}
	m.tierOf = sc.tierOf
	if !ev.covered(fix) {
		if sc.remOut == nil {
			numGroups, numNIs := len(ev.prep.Groups), ev.top.NumSwitches()*ev.p.NIsPerSwitch
			sc.remOut = grid[int](numGroups, ev.numCores)
			sc.remIn = grid[int](numGroups, ev.numCores)
			sc.niRemOut = grid[int](numGroups, numNIs)
			sc.niRemIn = grid[int](numGroups, numNIs)
		}
		for g := range sc.remOut {
			copy(sc.remOut[g], ev.remOutTpl[g])
			copy(sc.remIn[g], ev.remInTpl[g])
			clear(sc.niRemOut[g])
			clear(sc.niRemIn[g])
		}
		m.remOut, m.remIn = sc.remOut, sc.remIn
		m.niRemOut, m.niRemIn = sc.niRemOut, sc.niRemIn
	}
	m.configs = grid[*Assignment](len(ev.prep.Groups), len(ev.pairList))
	m.placeFixed(fix)
	return m
}

// Evaluate runs the configuration phase on a fixed core placement using the
// pooled scratch state and returns the complete Result. The output is
// bit-identical to a fresh Evaluator's on the same inputs; only the fixed
// per-call costs are gone.
func (ev *Evaluator) Evaluate(coreSwitch, coreNI []int) (*Result, error) {
	if err := ev.ValidatePlacement(coreSwitch, coreNI); err != nil {
		return nil, err
	}
	sc := ev.getScratch()
	m := ev.mapperFor(sc, &placementFix{CoreSwitch: coreSwitch, CoreNI: coreNI})
	mapping, err := m.run()
	res := (*Result)(nil)
	if err == nil {
		dim := topology.Dim{Rows: ev.top.Rows, Cols: ev.top.Cols}
		res = &Result{Mapping: mapping, Attempts: []Attempt{{Dim: dim}}, Stats: computeStats(mapping, m.states)}
	}
	sc.journal = m.journal
	ev.putScratch(sc)
	return res, err
}

// attempt runs one constructive/configuration pass and, on success, hands
// the final TDMA states and reservation journal to the caller (the growth
// loop and Session initialization keep them). The scratch arena backs the
// run: a failed attempt recycles it, a successful one detaches it — the
// pool lazily allocates a replacement — so the frequent outcome of a
// saturated fabric (infeasible) costs no state allocation at all.
func (ev *Evaluator) attempt(fix *placementFix) (*Mapping, []*tdma.State, []resRecord, error) {
	sc := ev.getScratch()
	m := ev.mapperFor(sc, fix)
	mapping, err := m.run()
	if err != nil {
		sc.journal = m.journal
		ev.putScratch(sc)
		return nil, nil, nil, err
	}
	return mapping, m.states, m.journal, nil
}

// Infeasibility sentinels of the reservation primitive. The move loop of a
// search engine probes thousands of placements whose rejections are
// ordinary control flow, so the primitive reports them without formatting;
// the constructive pass expands them with reserveError.
var (
	errOverCapacity = fmt.Errorf("core: flow bandwidth exceeds link capacity")
	errNoPath       = fmt.Errorf("core: no bandwidth-feasible path")
	errNoAligned    = fmt.Errorf("core: no aligned slots on any candidate path")
)

// reserveScratch is the working state of reserveSlotsInto: the route-query
// scratch, the shared path probe buffer, and the number of candidate paths
// the last call probed (for the failure text).
type reserveScratch struct {
	route *route.Scratch
	full  []int
	cands int
}

// reserveSlotsInto selects a path and aligned slots for one pair on one
// state: candidate paths cheapest-first (from the per-pair cache), slot
// count escalating from the bandwidth demand slots0 when the latency
// budget (in slots; negative means none) needs a smaller gap. Both come
// precomputed from the templates (pairSlots, pairPlan.latSlots). On success
// the reservation is committed to st and recorded in rec — path and start
// buffers come from (and are retained by) the record, so callers that keep
// the reservation beyond the record's next use must clone them. Route
// queries reuse the scratch, and infeasibility is reported through shared
// sentinel errors.
func (ev *Evaluator) reserveSlotsInto(sc *reserveScratch, st *tdma.State,
	srcS, dstS, egress, ingress, slots0, latBudget int, rec *resRecord) error {
	T := ev.p.SlotTableSize
	if slots0 > T {
		return errOverCapacity
	}
	if cap(rec.start) < T {
		// A reservation never holds more than T starts; sizing the record's
		// buffer once keeps every later probe allocation-free no matter which
		// pair the recycled record serves.
		rec.start = make([]int, 0, T)
	}
	var meshCands []route.Path
	if srcS != dstS {
		meshCands = ev.paths.CandidatesInto(sc.route, st, topology.SwitchID(srcS), topology.SwitchID(dstS), slots0, ev.p.Cost)
		if len(meshCands) == 0 {
			return errNoPath
		}
		if ev.p.DisableUnifiedSlots {
			// Ablation A2: path selection ignores slot alignment — commit to
			// the single cheapest bandwidth-feasible path.
			meshCands = meshCands[:1]
		}
	} else {
		meshCands = sameSwitchCands
	}
	sc.cands = len(meshCands)
	for _, cand := range meshCands {
		full := sc.full[:0]
		full = append(full, egress)
		for _, l := range cand {
			full = append(full, int(l))
		}
		full = append(full, ingress)
		sc.full = full
		for n := slots0; n <= T; n++ {
			starts, ok := st.FindAlignedInto(full, n, rec.start[:0])
			if !ok {
				break // more slots cannot become available
			}
			rec.start = starts // retain buffer growth across rejected probes
			if latBudget >= 0 && tdma.WorstCaseLatencySlots(starts, len(full), T) > latBudget {
				continue // spread more slots to shrink the gap
			}
			if err := st.Reserve(0, full, starts); err != nil {
				return fmt.Errorf("internal: reserve after FindAlignedInto: %w", err)
			}
			rec.path = append(rec.path[:0], full...)
			rec.start = starts
			rec.hops = ev.pathHops(rec.path)
			return nil
		}
	}
	return errNoAligned
}

// sameSwitchCands is the single empty mesh path of a src==dst reservation.
var sameSwitchCands = []route.Path{nil}

// reserveError expands a reserveSlotsInto sentinel into the descriptive
// error the constructive pass reports; cands is the number of candidate
// paths the failed call probed, and slots0, latBudget and bw are the
// pair's demand, latency budget and reservation bandwidth.
func (ev *Evaluator) reserveError(cause error, cands int, key traffic.PairKey, srcS, dstS, slots0, latBudget int, bw float64) error {
	switch cause {
	case errOverCapacity:
		return fmt.Errorf("flow %d->%d needs %d slots, table has %d (bandwidth %0.1f exceeds link capacity %0.1f MB/s)",
			key.Src, key.Dst, slots0, ev.p.SlotTableSize, bw, ev.p.LinkBandwidthMBs())
	case errNoPath:
		return fmt.Errorf("flow %d->%d: no feasible path %d->%d (%d slots)", key.Src, key.Dst, srcS, dstS, slots0)
	case errNoAligned:
		return fmt.Errorf("flow %d->%d: no aligned slots (need %d, latency budget %d slots) on any of %d paths",
			key.Src, key.Dst, slots0, latBudget, cands)
	}
	return cause
}
