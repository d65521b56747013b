package core

import (
	"cmp"
	"fmt"
	"math"
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
	// bandwidth) order — the order a fixed-placement evaluation routes each
	// group's pairs in. A pair's position in it is its dense index, which
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
	// slot demands; every growth attempt copies and consumes them.
	remOutTpl, remInTpl [][]int
	// active lists the cores that appear in at least one flow.
	active []int
	// groupPairs lists, per group, its pairs with their bandwidth-driven
	// slot demand (pairSlots flattened for cheap deterministic iteration in
	// the session's capacity prechecks).
	groupPairs [][]pairDemand
	// ucPairs lists, per use-case, its distinct pairs with the flow
	// bandwidth in flow order — the walk statsOf sums over, so no caller
	// needs Config maps for stats; ucPairIdx mirrors it as pair indices.
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
	// states holds one residual slot-table state per smooth-switching
	// group: group members share a single NoC configuration (paper Section
	// 4), so a reservation made for any member occupies slots for all of
	// them. With no smooth-switching constraints every group is a singleton
	// and this degenerates to the per-use-case data structures of
	// Algorithm 2.
	states []*tdma.State
	// tierBits backs the mapper's three tier bitsets; tierOf its per-pair
	// tiers.
	tierBits []uint64
	tierOf   []uint8
	// remOut/remIn hold, per group and core, the not-yet-reserved slot
	// demand the core will still source or sink; niRemOut/niRemIn the sums
	// over the cores attached to each NI. Projected NI occupancy (current
	// reservations + remaining demand of the NI's cores) steers the
	// mapper's placement: greedy per-flow decisions would otherwise
	// co-locate cores whose later flows overrun the NI.
	remOut, remIn     [][]int
	niRemOut, niRemIn [][]int
	// journal lists the evaluation's live reservations in grant order,
	// sized once for every reservation the templates can grant; tape holds
	// their paths back to back in the same order, so a LIFO rollback
	// truncates both, and sets their start sets (tdma.Words(T) words each)
	// at their journal index. configs is the [group][pair] table of journal
	// positions (journal index + 1; zero where the pair is not reserved).
	// Only a finished evaluation copies assignments off the tape.
	journal []journalEntry
	tape    []int
	sets    []uint64
	configs [][]int32
	// res and rec are the reservation primitive's working state: the
	// route-query scratch (the mapper also ranks placements on its
	// least-cost tree there) and the probe record a granted reservation is
	// copied onto the tape from.
	res reserveScratch
	rec resRecord
	// seats counts the cores per NI while Evaluate validates a placement.
	seats []int
	// places, ranked and seeds are the mapper's growth-step buffers: a
	// flow's candidate placements, the switches ranked around a mapped
	// endpoint and the seed switches of a flow with none mapped. They grow
	// by append and the arena carries them from fabric to fabric.
	places        []placement
	ranked, seeds []switchCand
}

// journalEntry is one granted reservation of an evaluation: the group, the
// pair's dense index, where its path lies on the tape and how many starts
// its start set holds. Its slot demand is in pairSlots.
type journalEntry struct {
	group, idx     int32
	off            int
	pathLen, slots int32
}

// grant records the reservation the primitive just claimed in rec as pair
// idx of group g: its path goes onto the tape, its start set into the
// journal index's place in sets, its entry onto the journal and its
// position into the assignment table.
func (sc *evalScratch) grant(g int, idx int32) {
	i, w := len(sc.journal), len(sc.rec.start)
	copy(sc.sets[i*w:(i+1)*w], sc.rec.start)
	sc.journal = append(sc.journal, journalEntry{group: int32(g), idx: idx, off: len(sc.tape),
		pathLen: int32(len(sc.rec.path)), slots: sc.rec.slots})
	sc.tape = append(sc.tape, sc.rec.path...)
	sc.configs[g][idx] = int32(len(sc.journal))
}

// reservation returns the path and the start set of journal entry i.
func (sc *evalScratch) reservation(i int) (path []int, starts []uint64) {
	e, w := sc.journal[i], len(sc.rec.start)
	return sc.tape[e.off : e.off+int(e.pathLen)], sc.sets[i*w : (i+1)*w]
}

// forget empties the journal, the tape and the assignment table without
// releasing the reservations, for a caller that discards the states.
func (sc *evalScratch) forget() {
	for _, e := range sc.journal {
		sc.configs[e.group][e.idx] = 0
	}
	sc.journal, sc.tape = sc.journal[:0], sc.tape[:0]
}

// unwind releases the reservations journaled from mark on, newest first,
// and drops them from the journal, the tape and the assignment table.
func (sc *evalScratch) unwind(mark int) {
	if mark >= len(sc.journal) {
		return
	}
	for i := len(sc.journal) - 1; i >= mark; i-- {
		e := sc.journal[i]
		path, starts := sc.reservation(i)
		sc.states[e.group].Release(path, starts)
		sc.configs[e.group][e.idx] = 0
	}
	sc.tape = sc.tape[:sc.journal[mark].off]
	sc.journal = sc.journal[:mark]
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

// flowKey is the compact sort key of one flow occurrence; ascending keys
// are the global work-list order (Algorithm 2 step 2): descending
// bandwidth, then ascending pair, then ascending use-case. bw is the
// complemented IEEE bits of the bandwidth, which validation holds positive
// and finite, so the bits order like the values; pair packs src<<32|dst and
// at packs the use-case and the flow's index in it as uc<<32|idx (core IDs
// index per-core tables and use-cases and flows are slice positions, so
// each fits 32 bits).
type flowKey struct {
	bw, pair, at uint64
}

func (a flowKey) compare(b flowKey) int {
	switch {
	case a.bw != b.bw:
		return cmp.Compare(a.bw, b.bw)
	case a.pair != b.pair:
		return cmp.Compare(a.pair, b.pair)
	}
	return cmp.Compare(a.at, b.at)
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
	numFlows := sum(ucFlows)
	keys := make([]flowKey, 0, numFlows)
	for uc, u := range prep.UseCases {
		for idx, f := range u.Flows {
			keys = append(keys, flowKey{
				bw:   ^math.Float64bits(f.BandwidthMBs),
				pair: uint64(f.Src)<<32 | uint64(f.Dst),
				at:   uint64(uc)<<32 | uint64(idx),
			})
		}
	}
	// Sort natively on one word first — the high half of the bandwidth key
	// above the flow's position in keys — and then each run of equal high
	// halves (equal or nearly equal bandwidths) by the full key. No two keys
	// are equal (their at fields differ), so this is the one order any sort
	// by flowKey.compare yields.
	order := make([]uint64, numFlows)
	for i, k := range keys {
		order[i] = k.bw&^math.MaxUint32 | uint64(i)
	}
	slices.Sort(order)
	for lo := 0; lo < numFlows; {
		hi := lo + 1
		for hi < numFlows && order[hi]>>32 == order[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b uint64) int { return keys[uint32(a)].compare(keys[uint32(b)]) })
		}
		lo = hi
	}
	t.flowsTpl = make([]flowInst, numFlows)
	for i, o := range order {
		k := keys[uint32(o)]
		uc, idx := int(k.at>>32), int(uint32(k.at))
		f := prep.UseCases[uc].Flows[idx]
		t.flowsTpl[i] = flowInst{uc: uc, idx: idx, bw: f.BandwidthMBs, lat: f.MaxLatencyNS, key: f.Key()}
	}
	// Dense pair indices in first-occurrence order of the sorted list, found
	// without a map: pairAt holds a pair's index plus one (zero: not seen
	// yet), up to 64 cores at src*numCores+dst and past that at the pair's
	// rank among the sorted distinct pair words.
	slot := func(key traffic.PairKey) int { return int(key.Src)*numCores + int(key.Dst) }
	size := numCores * numCores
	if numCores > 64 {
		words := make([]uint64, numFlows)
		for i, k := range keys {
			words[i] = k.pair
		}
		slices.Sort(words)
		words = slices.Compact(words)
		slot = func(key traffic.PairKey) int {
			r, _ := slices.BinarySearch(words, uint64(key.Src)<<32|uint64(key.Dst))
			return r
		}
		size = len(words)
	}
	pairAt := make([]int32, size)
	var pairInsts []int
	for i := range t.flowsTpl {
		f := &t.flowsTpl[i]
		at := &pairAt[slot(f.key)]
		if *at == 0 {
			t.pairList = append(t.pairList, f.key)
			pairInsts = append(pairInsts, 0)
			*at = int32(len(t.pairList))
		}
		f.pair = *at - 1
		pairInsts[f.pair]++
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
	// tables and candidate costs read only its own state — so Evaluate and
	// the session's per-group rebuild fallback both route a group against
	// this list alone.
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
		}
		t.ucPairIdx[uc] = t.ucPairIdx[uc][:len(u.Flows)]
	}
	for _, f := range t.flowsTpl {
		t.ucPairIdx[f.uc][f.idx] = f.pair
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

// validatePlacement checks a fixed placement against the evaluator's
// topology and NI shape without running the configuration phase: slice
// lengths, switch/NI ranges, NI-on-switch consistency, per-NI core
// capacity and that every communicating core is attached. Cores with a
// negative switch are unattached and skipped. It counts NI seats in the
// caller's buffer, which must hold at least one entry per NI: Evaluate
// passes its pooled arena's and sessions their own, so neither allocates.
func (ev *Evaluator) validatePlacement(coreSwitch, coreNI, seats []int) error {
	if len(coreSwitch) != ev.numCores || len(coreNI) != ev.numCores {
		return fmt.Errorf("core: fixed placement has wrong length (switch %d, NI %d entries, design has %d cores)",
			len(coreSwitch), len(coreNI), ev.numCores)
	}
	numNIs := ev.numNIs()
	seats = seats[:numNIs]
	clear(seats)
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
	for _, c := range ev.active {
		if coreSwitch[c] < 0 {
			return fmt.Errorf("core: fixed placement leaves communicating core %d unattached", c)
		}
	}
	return nil
}

// numNIs is the fabric's NI count.
func (ev *Evaluator) numNIs() int { return ev.top.NumSwitches() * ev.p.NIsPerSwitch }

// NIDemand returns the slots core's pairs provably occupy in group g's
// slot tables on the core's NI links: egress sums the slot demand of the
// group's pairs core sources, ingress of those it sinks, each pair sized by
// the group's heaviest same-pair flow. It reads the one demand table
// (remOutTpl/remInTpl) behind the mapper's NI projection, the session's NI
// precheck and the exact engine's prune and descent order.
func (t *templates) NIDemand(g, core int) (egress, ingress int) {
	return t.remOutTpl[g][core], t.remInTpl[g][core]
}

// getScratch draws (or creates) a clean scratch arena.
func (ev *Evaluator) getScratch() *evalScratch {
	if sc, ok := ev.pool.Get().(*evalScratch); ok {
		return sc
	}
	sc := ev.refit(ev.newScratch())
	sc.seats = make([]int, ev.numNIs())
	return sc
}

// newScratch allocates the fabric-independent tables of a scratch arena,
// sized by the design alone: the tiers, the per-core projections, the
// assignment table, the journal, the tape, the start sets and the probe
// record's start set. The growth loop carries one arena from fabric to
// fabric (see attempt); refit adds the rest.
func (t *templates) newScratch() *evalScratch {
	sc := &evalScratch{}
	numGroups, numPairs := len(t.prep.Groups), len(t.pairList)
	sc.tierBits = make([]uint64, int(tierDone)*((numPairs+63)/64))
	sc.tierOf = make([]uint8, numPairs)
	sc.remOut = grid[int](numGroups, t.numCores)
	sc.remIn = grid[int](numGroups, t.numCores)
	sc.configs = grid[int32](numGroups, numPairs)
	reservations, words := t.reservations(), tdma.Words(t.p.SlotTableSize)
	sc.journal = make([]journalEntry, 0, reservations)
	// Room for a path of the two NI links and two mesh hops per
	// reservation; longer paths grow the tape by append.
	sc.tape = make([]int, 0, 4*reservations)
	sc.sets = make([]uint64, reservations*words)
	sc.rec.start = make([]uint64, words)
	sc.res.route = route.NewScratch()
	return sc
}

// reservations counts the (group, pair) reservations a configuration of
// the design holds.
func (t *templates) reservations() int {
	n := 0
	for _, pairs := range t.groupPairs {
		n += len(pairs)
	}
	return n
}

// refit gives sc, whose journal must be empty, the per-fabric tables of the
// evaluator's fabric: fresh slot-table states, per-NI projections and a
// probe path buffer with room for a simple path.
func (ev *Evaluator) refit(sc *evalScratch) *evalScratch {
	sc.states = make([]*tdma.State, len(ev.prep.Groups))
	for g := range sc.states {
		st, err := tdma.NewState(ev.totalLinks, ev.p.SlotTableSize)
		if err != nil {
			// Params were validated at construction; NewState cannot fail.
			panic(fmt.Sprintf("core: internal: %v", err))
		}
		sc.states[g] = st
	}
	sc.niRemOut = grid[int](len(sc.states), ev.numNIs())
	sc.niRemIn = grid[int](len(sc.states), ev.numNIs())
	if cap(sc.rec.path) < ev.maxPathLen() {
		sc.rec.path = make([]int, 0, ev.maxPathLen())
	}
	return sc
}

// maxPathLen bounds the links of a simple path on the evaluator's fabric:
// a mesh link between each two of its switches plus the two NI links.
func (ev *Evaluator) maxPathLen() int { return ev.top.NumSwitches() + 1 }

// putScratch releases every reservation the evaluation journaled (restoring
// the states to all-free without an O(links*slots) wipe) and returns the
// arena to the pool.
func (ev *Evaluator) putScratch(sc *evalScratch) {
	sc.unwind(0)
	ev.pool.Put(sc)
}

// configsOnTape materializes the per-use-case configurations of the
// scratch's journaled reservations: one exactly sized []Assignment, in
// journal order, over one []int copy of the tape, so a result never
// aliases pooled scratch.
func (ev *Evaluator) configsOnTape(sc *evalScratch) ([]*Config, error) {
	asn := make([]Assignment, 0, len(sc.journal))
	total := len(sc.tape)
	for _, e := range sc.journal {
		total += int(e.slots)
	}
	buf := make([]int, 0, total)
	for i := range sc.journal {
		path, starts := sc.reservation(i)
		asn, buf = appendAssignment(asn, buf, path, starts)
	}
	return ev.configsOf(sc.configs, asn)
}

// mapperFor assembles a mapper over the scratch arena with no core placed
// and every pair in the no-endpoint-mapped tier. Immutable tables are
// shared with the evaluator; mutable ones are copied from the templates.
// The arena must hold no reservation.
func (ev *Evaluator) mapperFor(sc *evalScratch) *mapper {
	m := &mapper{Evaluator: ev, evalScratch: sc}
	clear(sc.tierBits)
	words := len(sc.tierBits) / len(m.tiers)
	for t := range m.tiers {
		m.tiers[t] = sc.tierBits[t*words : (t+1)*words]
	}
	for pi := range m.pairList {
		m.tierOf[pi] = tierNone
		m.tiers[tierNone][pi>>6] |= 1 << (pi & 63)
	}
	for g := range sc.remOut {
		copy(sc.remOut[g], ev.remOutTpl[g])
		copy(sc.remIn[g], ev.remInTpl[g])
		clear(sc.niRemOut[g])
		clear(sc.niRemIn[g])
	}
	m.coreSwitch = make([]int, ev.numCores)
	m.coreNI = make([]int, ev.numCores)
	for c := range m.coreSwitch {
		m.coreSwitch[c], m.coreNI[c] = -1, -1
	}
	m.switchCores = make([]int, ev.top.NumSwitches())
	m.niCores = make([]int, ev.numNIs())
	return m
}

// Evaluate runs the configuration phase on a fixed core placement, which
// must attach every communicating core, and returns the complete Result.
// The groups of a fixed placement never interact — each owns its slot
// tables — so the pass reserves each group's pairs in the global order
// (groupPairs) on the group's own state, as a session's rebuildGroup
// does; the first pair that does not fit rejects the placement. The states
// come from the pooled scratch arena, so only the result is allocated.
func (ev *Evaluator) Evaluate(coreSwitch, coreNI []int) (*Result, error) {
	sc := ev.getScratch()
	defer ev.putScratch(sc)
	if err := ev.validatePlacement(coreSwitch, coreNI, sc.seats); err != nil {
		return nil, err
	}
	for g, pairs := range ev.groupPairs {
		for _, pd := range pairs {
			if err := ev.reserveSlotsInto(&sc.res, sc.states[g], coreSwitch, coreNI, pd.key, pd.slots, pd.latSlots, &sc.rec); err != nil {
				return nil, fmt.Errorf("core: group %d: %w", g, ev.reserveError(err, sc.res.cands, coreSwitch, g, pd.idx))
			}
			sc.grant(g, pd.idx)
		}
	}
	configs, err := ev.configsOnTape(sc)
	if err != nil {
		return nil, err
	}
	cs, cn := slices.Clone(coreSwitch), slices.Clone(coreNI)
	for c, s := range cs {
		if s < 0 {
			cs[c], cn[c] = -1, -1 // unattached
		}
	}
	mapping := &Mapping{Topology: ev.top, Params: ev.p, Prep: ev.prep, CoreSwitch: cs, CoreNI: cn, Configs: configs}
	dim := topology.Dim{Rows: ev.top.Rows, Cols: ev.top.Cols}
	return &Result{Mapping: mapping, Attempts: []Attempt{{Dim: dim}}, Stats: ev.statsOf(sc.states, nil, sc)}, nil
}

// attempt runs the constructive pass of the growth loop on the evaluator's
// fabric, over the arena sc refitted to it. The growth loop derives a fresh
// evaluator per fabric, drops it after this one call and carries the arena
// to the next fabric, whose refit replaces the slot-table states: so a
// failed attempt releases none of its reservations and only forgets its
// journal. A successful attempt copies its assignments off the tape.
func (ev *Evaluator) attempt(sc *evalScratch) (*Mapping, Stats, error) {
	m := ev.mapperFor(ev.refit(sc))
	mapping, err := m.run()
	if err != nil {
		sc.forget()
		return nil, Stats{}, err
	}
	return mapping, ev.statsOf(sc.states, nil, sc), nil
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
// scratch and the number of candidate paths the last call probed (for the
// failure text).
type reserveScratch struct {
	route *route.Scratch
	cands int
}

// reserveSlotsInto selects a path and aligned slots for one pair on one
// state under the placement (coreSwitch, coreNI): candidate paths
// cheapest-first (from the per-pair cache) between the pair's NI links,
// slot count escalating from the bandwidth demand slots0 when the latency
// budget (in slots; negative means none) needs a smaller gap. Both come
// precomputed from the templates (pairSlots, pairPlan.latSlots). Each
// candidate's full path is built in rec's path buffer and claimed with one
// tdma.State.ReserveAligned into rec's start set, so on success the
// reservation is committed to st and recorded in rec — path and start set
// are the record's own storage, so callers that keep the reservation
// beyond the record's next use must copy them. Route queries reuse the
// scratch, and infeasibility is reported through shared sentinel errors.
func (ev *Evaluator) reserveSlotsInto(sc *reserveScratch, st *tdma.State, coreSwitch, coreNI []int,
	key traffic.PairKey, slots0, latBudget int, rec *resRecord) error {
	if slots0 > ev.p.SlotTableSize {
		return errOverCapacity
	}
	srcS, dstS := coreSwitch[key.Src], coreSwitch[key.Dst]
	egress, ingress := ev.niEgress(coreNI[key.Src]), ev.niIngress(coreNI[key.Dst])
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
		path := append(rec.path[:0], egress)
		for _, l := range cand {
			path = append(path, int(l))
		}
		rec.path = append(path, ingress)
		if n := st.ReserveAligned(rec.path, slots0, latBudget, rec.start); n > 0 {
			rec.slots = int32(n)
			rec.hops = ev.pathHops(rec.path)
			return nil
		}
	}
	return errNoAligned
}

// sameSwitchCands is the single empty mesh path of a src==dst reservation.
var sameSwitchCands = []route.Path{nil}

// reserveError expands a reserveSlotsInto sentinel for pair idx in group
// g under the placement coreSwitch into the descriptive error the
// constructive pass and Evaluate report; cands is the number of candidate
// paths the failed call probed.
func (ev *Evaluator) reserveError(cause error, cands int, coreSwitch []int, g int, idx int32) error {
	key, plan := ev.pairList[idx], &ev.planOf[idx]
	i := slices.Index(plan.groups, g)
	slots0, latBudget := ev.pairSlots[g][idx], plan.latSlots[i]
	switch cause {
	case errOverCapacity:
		return fmt.Errorf("flow %d->%d needs %d slots, table has %d (bandwidth %0.1f exceeds link capacity %0.1f MB/s)",
			key.Src, key.Dst, slots0, ev.p.SlotTableSize, plan.bw[i], ev.p.LinkBandwidthMBs())
	case errNoPath:
		return fmt.Errorf("flow %d->%d: no feasible path %d->%d (%d slots)",
			key.Src, key.Dst, coreSwitch[key.Src], coreSwitch[key.Dst], slots0)
	case errNoAligned:
		return fmt.Errorf("flow %d->%d: no aligned slots (need %d, latency budget %d slots) on any of %d paths",
			key.Src, key.Dst, slots0, latBudget, cands)
	}
	return cause
}
