package core

import (
	"fmt"
	"slices"

	"nocmap/internal/route"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
)

// Session is incremental evaluation over one evolving placement. It owns a
// fully-configured state (every flow of every group routed and reserved)
// and evaluates a move — a few cores changing seats — by tearing down and
// re-routing only the pairs whose endpoints moved, instead of
// re-configuring the world. When the delta path cannot re-route a pair
// (the incremental order wedges where a from-scratch pass would not), it
// falls back to a full re-evaluation transparently — and because the
// groups of a fixed placement never share slot tables, that fallback
// decomposes per smooth-switching group: only the wedged group is re-routed
// from scratch, and one group's from-scratch failure rejects the move
// without evaluating the rest.
//
// Before any routing, a move passes two necessary-capacity prechecks. The
// switch-side one reads sums the session keeps current: per group and
// switch, the slot demand crossing into and out of the switch under the
// placement. A move shifts only its affected pairs' share of those sums
// (and a rejected or undone move shifts it back), so the precheck never
// rescans the design. The re-route then walks per-group buckets of the
// affected pairs, filled while the teardown walks each pair's groups.
//
// A move is two-phase: TryMove reserves the new configuration and returns
// its statistics with the move pending; Keep commits it, Undo restores the
// previous configuration exactly. This is the shape a Metropolis acceptance
// loop needs — the annealer scores the candidate before deciding.
//
// The move path performs no heap allocation in steady state: records,
// their path/start buffers, the pending-move bookkeeping and every scratch
// live on the session and are recycled move over move (the per-group
// rebuild fallback and error formatting on cold validation paths are the
// deliberate exceptions). BenchmarkSessionMove gates this at 0 allocs/op
// in CI.
//
// The configurations a session reaches by deltas are always feasible,
// verified reservations, but they are not guaranteed to be the same
// configuration a from-scratch evaluation of the same placement would
// build: the incremental pass re-routes moved pairs against the standing
// reservations of unmoved ones, while a full pass routes everything in
// global bandwidth order. Search engines only need feasibility plus a
// deterministic score, which both paths provide.
//
// A Session is single-owner mutable state, like tdma.State: concurrent
// searches each own one (the evaluator underneath is shared). Clone forks
// an independent session at the same configuration — the speculative batch
// loop evaluates one candidate per clone concurrently.
type Session struct {
	ev *Evaluator

	// cs/cn hold the current placement; csAlt/cnAlt are the spare buffers
	// the next TryMove writes its candidate into (the pair swaps, so no
	// placement copy ever allocates).
	cs, cn       []int
	csAlt, cnAlt []int

	states []*tdma.State
	// crossOut/crossIn hold, at [switch*groups + group], the slot demand
	// (pairSlots) of the group's pairs that leave (enter) the switch for
	// (from) another switch under the session's placement — the candidate's
	// while a move is pending. switchCapacityCheck bounds them.
	crossOut, crossIn []int
	// recs holds the live reservation records dense by [group][pair index]
	// (nil where the group does not communicate over the pair).
	recs  [][]*resRecord
	stats Stats

	pending bool
	pm      pendingMove

	// freeRecs recycles records — and, through them, their path/start
	// buffers — across moves.
	freeRecs []*resRecord

	sc moveScratch
}

// pendingMove remembers how to undo the in-flight TryMove. Its slices are
// reused across moves.
type pendingMove struct {
	stats Stats

	// Delta bookkeeping per group: records released by the teardown and
	// fresh records the re-route granted.
	oldByGroup [][]*resRecord
	newByGroup [][]*resRecord

	// rebuilt lists the groups the fallback re-evaluated from scratch;
	// snap[g] then holds the group's complete pre-move record set
	// (restored wholesale on Undo).
	rebuilt []int
	snap    [][]*resRecord

	// swapped records whether the placement buffers were exchanged, so a
	// rollback from any point restores them correctly.
	swapped bool
}

// moveScratch is the reusable working state of one session's moves.
type moveScratch struct {
	res      reserveScratch
	affected []int32
	seenPair []bool
	seats    []int
	swCheck  []int
	// buckets lists, per group, the affected pairs the group re-routes, in
	// ascending affected order. Every bucket is empty between moves.
	buckets [][]groupPair
}

// groupPair is one affected pair of a group's re-route: the pair's dense
// index and the group's position gi in the pair's plan.
type groupPair struct {
	idx, gi int32
}

// Move-rejection sentinels: a search engine probes thousands of placements
// whose rejections are ordinary control flow, so the hot path reports them
// without formatting.
var (
	errPendingMove    = fmt.Errorf("core: session has a pending move (Keep or Undo it first)")
	errNICapacity     = fmt.Errorf("core: move overfills an NI's slot-table capacity")
	errSwitchCapacity = fmt.Errorf("core: move overfills a switch's mesh-link capacity")
	errMoveInfeasible = fmt.Errorf("core: move infeasible: a group's flows no longer route or fit their slot tables")
)

// newSessionShell builds an empty session with every buffer sized for the
// evaluator's design; callers fill states, records and the placement.
func (ev *Evaluator) newSessionShell() *Session {
	numGroups := len(ev.prep.Groups)
	numPairs := len(ev.pairList)
	s := &Session{
		ev:       ev,
		cs:       make([]int, ev.numCores),
		cn:       make([]int, ev.numCores),
		csAlt:    make([]int, ev.numCores),
		cnAlt:    make([]int, ev.numCores),
		states:   make([]*tdma.State, numGroups),
		crossOut: make([]int, ev.top.NumSwitches()*numGroups),
		crossIn:  make([]int, ev.top.NumSwitches()*numGroups),
		recs:     make([][]*resRecord, numGroups),
	}
	for g := range s.recs {
		s.recs[g] = make([]*resRecord, numPairs)
	}
	s.pm.oldByGroup = make([][]*resRecord, numGroups)
	s.pm.newByGroup = make([][]*resRecord, numGroups)
	s.pm.snap = make([][]*resRecord, numGroups)
	s.sc.res.route = route.NewScratch()
	s.sc.affected = make([]int32, 0, numPairs)
	s.sc.seenPair = make([]bool, numPairs)
	s.sc.buckets = make([][]groupPair, numGroups)
	return s
}

// addCross adds sign times pair idx's cross-switch demand under the
// placement coreSwitch to the sums: each of the pair's groups demands its
// pairSlots out of the source switch and into the destination switch, when
// the two differ.
func (s *Session) addCross(coreSwitch []int, idx int32, sign int) {
	key := s.ev.pairList[idx]
	src, dst := coreSwitch[key.Src], coreSwitch[key.Dst]
	if src == dst {
		return
	}
	numGroups := len(s.ev.prep.Groups)
	for _, g := range s.ev.planOf[idx].groups {
		d := sign * s.ev.pairSlots[g][idx]
		if src >= 0 {
			s.crossOut[src*numGroups+g] += d
		}
		if dst >= 0 {
			s.crossIn[dst*numGroups+g] += d
		}
	}
}

// initCross builds the cross-switch sums of the session's placement from
// scratch.
func (s *Session) initCross() {
	for i := range s.ev.pairList {
		s.addCross(s.cs, int32(i), 1)
	}
}

// shiftCross moves the affected pairs' share of the cross-switch sums from
// the placement from to the placement to.
func (s *Session) shiftCross(from, to []int) {
	for _, idx := range s.sc.affected {
		key := s.ev.pairList[idx]
		if from[key.Src] == to[key.Src] && from[key.Dst] == to[key.Dst] {
			continue // the pair keeps its switches
		}
		s.addCross(from, idx, -1)
		s.addCross(to, idx, 1)
	}
}

// clearBuckets empties every group's re-route bucket.
func (s *Session) clearBuckets() {
	for g := range s.sc.buckets {
		s.sc.buckets[g] = s.sc.buckets[g][:0]
	}
}

func (s *Session) getRec() *resRecord {
	if n := len(s.freeRecs); n > 0 {
		r := s.freeRecs[n-1]
		s.freeRecs = s.freeRecs[:n-1]
		return r
	}
	return &resRecord{}
}

func (s *Session) putRec(r *resRecord) { s.freeRecs = append(s.freeRecs, r) }

// pathHops counts the mesh links of a full path (NI links excluded).
func (ev *Evaluator) pathHops(path []int) int32 {
	hops := int32(0)
	for _, l := range path {
		if l < ev.meshLinks {
			hops++
		}
	}
	return hops
}

// NewSession fully evaluates the placement and, on success, returns a
// session positioned at it. Every communicating core must be placed: a
// session evaluates moves of an existing complete placement, it does not
// run the constructive placement phase.
func (ev *Evaluator) NewSession(coreSwitch, coreNI []int) (*Session, error) {
	if err := ev.ValidatePlacement(coreSwitch, coreNI); err != nil {
		return nil, err
	}
	fix := &placementFix{CoreSwitch: coreSwitch, CoreNI: coreNI}
	if !ev.covered(fix) {
		return nil, fmt.Errorf("core: session placement leaves communicating cores unattached")
	}
	mapping, states, journal, err := ev.attempt(fix)
	if err != nil {
		return nil, err
	}
	s := ev.newSessionShell()
	copy(s.cs, coreSwitch)
	copy(s.cn, coreNI)
	s.states = states
	// Adopt the journal's records: the successful attempt detached its
	// scratch, so the records — and their path/start buffers — are
	// exclusively this session's and can enter the recycling pool.
	for i := range journal {
		r := &journal[i]
		s.recs[r.group][r.idx] = r
	}
	s.stats = computeStats(mapping, states)
	s.initCross()
	return s, nil
}

// SessionFrom positions a session at an existing Result's configuration
// without re-running the configuration phase: the result's reservations are
// replayed into fresh slot tables exactly as granted. This matters beyond
// speed — a constructive (growth-loop) result is not always reproducible by
// a fixed-placement re-evaluation, because the constructive pass routed
// flows while the placement was still emerging; adopting the reservations
// keeps such results annealable. The result must be a feasible
// configuration on this evaluator's topology (engine results verified by
// internal/verify always are). The reservation data is copied, never
// aliased: the session's buffer recycling must not reach into the source
// result.
func (ev *Evaluator) SessionFrom(res *Result) (*Session, error) {
	if res == nil || res.Mapping == nil {
		return nil, fmt.Errorf("core: session from nil result")
	}
	m := res.Mapping
	if m.Topology.NumSwitches() != ev.top.NumSwitches() || m.Topology.NumLinks() != ev.top.NumLinks() {
		return nil, fmt.Errorf("core: result fabric %s does not match evaluator fabric %s", m.Topology, ev.top)
	}
	if err := ev.ValidatePlacement(m.CoreSwitch, m.CoreNI); err != nil {
		return nil, err
	}
	s := ev.newSessionShell()
	copy(s.cs, m.CoreSwitch)
	copy(s.cn, m.CoreNI)
	for g := range s.states {
		st, err := tdma.NewState(ev.totalLinks, ev.p.SlotTableSize)
		if err != nil {
			return nil, err
		}
		s.states[g] = st
	}
	// Collect the group-shared assignment of every (group, pair) from the
	// per-use-case configurations, then replay it.
	for uc := range ev.prep.UseCases {
		g := ev.prep.GroupOf[uc]
		cfg := m.Configs[uc]
		if cfg == nil {
			return nil, fmt.Errorf("core: result misses configuration of use-case %d", uc)
		}
		for i, ps := range ev.ucPairs[uc] {
			a := cfg.Assignments[ps.key]
			if a == nil {
				return nil, fmt.Errorf("core: result misses assignment of pair %d->%d", ps.key.Src, ps.key.Dst)
			}
			idx := ev.ucPairIdx[uc][i]
			if s.recs[g][idx] != nil {
				continue
			}
			r := s.getRec()
			r.group, r.key, r.idx = g, ps.key, idx
			r.path = append(r.path[:0], a.Path...)
			r.start = append(r.start[:0], a.Starts...)
			r.hops = ev.pathHops(r.path)
			if err := s.states[g].Reserve(0, r.path, r.start); err != nil {
				return nil, fmt.Errorf("core: result not reservable (pair %d->%d, group %d): %w", ps.key.Src, ps.key.Dst, g, err)
			}
			s.recs[g][idx] = r
		}
	}
	s.stats = s.statsFromRecs()
	s.initCross()
	return s, nil
}

// Clone forks an independent session at the same committed configuration:
// same placement, same reservations, same statistics, disjoint mutable
// state. The clones share only the immutable evaluator underneath, so each
// can run its own move loop concurrently — the speculative batch evaluator
// scores one candidate per clone. Cloning with a pending move is an error.
func (s *Session) Clone() (*Session, error) {
	if s.pending {
		return nil, errPendingMove
	}
	c := s.ev.newSessionShell()
	copy(c.cs, s.cs)
	copy(c.cn, s.cn)
	c.stats = s.stats
	copy(c.crossOut, s.crossOut)
	copy(c.crossIn, s.crossIn)
	for g := range s.states {
		c.states[g] = s.states[g].Clone()
		for idx, r := range s.recs[g] {
			if r == nil {
				continue
			}
			nr := c.getRec()
			nr.group, nr.key, nr.idx, nr.hops = r.group, r.key, r.idx, r.hops
			nr.path = append(nr.path[:0], r.path...)
			nr.start = append(nr.start[:0], r.start...)
			c.recs[g][idx] = nr
		}
	}
	return c, nil
}

// Stats returns the statistics of the current committed configuration.
func (s *Session) Stats() Stats { return s.stats }

// Placement returns copies of the current placement.
func (s *Session) Placement() (coreSwitch, coreNI []int) {
	return append([]int(nil), s.cs...), append([]int(nil), s.cn...)
}

// PlacementInto copies the current placement into the caller's buffers
// (each must have the design's core count) — the allocation-free form of
// Placement for proposal loops.
func (s *Session) PlacementInto(coreSwitch, coreNI []int) {
	copy(coreSwitch, s.cs)
	copy(coreNI, s.cn)
}

// TryMove evaluates the placement (coreSwitch, coreNI), which must differ
// from the session's current placement only at the listed moved cores. On
// success the move is pending — commit with Keep or roll back with Undo —
// and the returned Stats describe the new configuration. On error the
// session is unchanged and no move is pending.
func (s *Session) TryMove(coreSwitch, coreNI []int, moved ...int) (Stats, error) {
	if s.pending {
		return Stats{}, errPendingMove
	}
	if err := s.validatePlacement(coreSwitch, coreNI); err != nil {
		return Stats{}, err
	}
	for _, c := range moved {
		if c < 0 || c >= s.ev.numCores {
			return Stats{}, fmt.Errorf("core: moved core %d out of range", c)
		}
	}
	for c := 0; c < s.ev.numCores; c++ {
		if coreSwitch[c] == s.cs[c] && coreNI[c] == s.cn[c] {
			continue
		}
		listed := false
		for _, m := range moved {
			if m == c {
				listed = true
				break
			}
		}
		if !listed {
			return Stats{}, fmt.Errorf("core: core %d changed seats but is not listed as moved", c)
		}
	}
	if err := s.niCapacityCheck(coreNI, moved); err != nil {
		return Stats{}, err
	}

	// Collect the pairs with a moved endpoint in the deterministic global
	// routing order (the incidence lists are ascending; the merge is sorted
	// back after dedup).
	affected := s.sc.affected[:0]
	for mi, c := range moved {
		dup := false
		for _, c2 := range moved[:mi] {
			if c2 == c {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for _, idx := range s.ev.pairsOf[c] {
			if !s.sc.seenPair[idx] {
				s.sc.seenPair[idx] = true
				affected = append(affected, idx)
			}
		}
	}
	slices.Sort(affected)
	for _, idx := range affected {
		s.sc.seenPair[idx] = false
	}
	s.sc.affected = affected

	// The precheck shifts the affected pairs' cross-switch demand to the
	// candidate; from here on the shift and the placement swap go together,
	// and rollbackMove reverts both.
	if err := s.switchCapacityCheck(coreSwitch, moved); err != nil {
		return Stats{}, err
	}

	// Adopt the candidate placement (buffer swap; rollback swaps back).
	pm := &s.pm
	copy(s.csAlt, coreSwitch)
	copy(s.cnAlt, coreNI)
	s.cs, s.csAlt = s.csAlt, s.cs
	s.cn, s.cnAlt = s.cnAlt, s.cn
	pm.swapped = true

	// Tear down every affected pair, filing it into the bucket of each
	// group that re-routes it.
	buckets := s.sc.buckets
	for _, idx := range affected {
		for gi, g := range s.ev.planOf[idx].groups {
			r := s.recs[g][idx]
			if r == nil {
				s.clearBuckets()
				s.rollbackMove()
				return Stats{}, fmt.Errorf("core: internal: pair %d missing from group %d", idx, g)
			}
			s.states[g].Release(0, r.path, r.start)
			s.recs[g][idx] = nil
			pm.oldByGroup[g] = append(pm.oldByGroup[g], r)
			buckets[g] = append(buckets[g], groupPair{idx: idx, gi: int32(gi)})
		}
	}

	// Re-route group by group. The groups of a fixed placement are fully
	// independent — each owns its slot tables — so a group whose delta
	// re-route wedges falls back to a from-scratch re-route of that group
	// alone (identical to its share of a full re-evaluation), and a group
	// whose from-scratch pass fails proves the whole move infeasible
	// without touching the remaining groups.
	for g, bucket := range buckets {
		buckets[g] = bucket[:0]
		ok := true
		for _, e := range bucket {
			key := s.ev.pairList[e.idx]
			rec := s.getRec()
			err := s.ev.reserveSlotsInto(&s.sc.res, s.states[g],
				s.cs[key.Src], s.cs[key.Dst], s.ev.niEgress(s.cn[key.Src]), s.ev.niIngress(s.cn[key.Dst]),
				s.ev.pairSlots[g][e.idx], s.ev.planOf[e.idx].latSlots[e.gi], rec)
			if err != nil {
				s.putRec(rec)
				ok = false
				break
			}
			rec.group, rec.key, rec.idx = g, key, e.idx
			s.recs[g][e.idx] = rec
			pm.newByGroup[g] = append(pm.newByGroup[g], rec)
		}
		if ok {
			continue
		}
		if err := s.rebuildGroup(g); err != nil {
			s.clearBuckets()
			s.rollbackMove()
			return Stats{}, errMoveInfeasible
		}
	}
	pm.stats = s.statsFromRecs()
	s.pending = true
	return pm.stats, nil
}

// rebuildGroup re-routes every pair of group g from scratch in the global
// order, after undoing the group's partial delta. On success the group
// carries exactly the configuration a full re-evaluation of the placement
// would grant it; on failure the group is restored to its pre-move
// configuration.
func (s *Session) rebuildGroup(g int) error {
	pm := &s.pm
	for _, r := range pm.newByGroup[g] {
		s.states[g].Release(0, r.path, r.start)
		s.recs[g][r.idx] = nil
		s.putRec(r)
	}
	pm.newByGroup[g] = pm.newByGroup[g][:0]
	// Snapshot the pre-move record set: the current (untouched) records
	// plus the ones the teardown released.
	if pm.snap[g] == nil {
		pm.snap[g] = make([]*resRecord, len(s.recs[g]))
	}
	snap := pm.snap[g]
	copy(snap, s.recs[g])
	for _, r := range pm.oldByGroup[g] {
		snap[r.idx] = r
	}
	pm.oldByGroup[g] = pm.oldByGroup[g][:0]
	pm.rebuilt = append(pm.rebuilt, g)

	s.states[g].Reset()
	cur := s.recs[g]
	for i := range cur {
		cur[i] = nil
	}
	for _, pd := range s.ev.groupPairs[g] {
		key := pd.key
		rec := s.getRec()
		err := s.ev.reserveSlotsInto(&s.sc.res, s.states[g],
			s.cs[key.Src], s.cs[key.Dst], s.ev.niEgress(s.cn[key.Src]), s.ev.niIngress(s.cn[key.Dst]),
			pd.slots, pd.latSlots, rec)
		if err != nil {
			s.putRec(rec)
			s.restoreGroupFromSnap(g)
			pm.rebuilt = pm.rebuilt[:len(pm.rebuilt)-1]
			return err
		}
		rec.group, rec.key, rec.idx = g, key, pd.idx
		cur[pd.idx] = rec
	}
	return nil
}

// restoreGroupFromSnap resets group g's state, frees its current records and
// replays the snapshot taken by rebuildGroup.
func (s *Session) restoreGroupFromSnap(g int) {
	cur := s.recs[g]
	for i, r := range cur {
		if r != nil {
			s.putRec(r)
			cur[i] = nil
		}
	}
	s.states[g].Reset()
	for _, r := range s.pm.snap[g] {
		if r == nil {
			continue
		}
		if err := s.states[g].Reserve(0, r.path, r.start); err != nil {
			// The set was simultaneously live before; replay cannot conflict.
			panic(fmt.Sprintf("core: internal: group restore failed: %v", err))
		}
	}
	copy(cur, s.pm.snap[g])
}

// rollbackMove restores every group and the placement to the pre-move
// configuration and recycles the rejected records.
func (s *Session) rollbackMove() {
	pm := &s.pm
	for _, g := range pm.rebuilt {
		s.restoreGroupFromSnap(g)
	}
	pm.rebuilt = pm.rebuilt[:0]
	for g := range pm.newByGroup {
		lst := pm.newByGroup[g]
		for i := len(lst) - 1; i >= 0; i-- {
			r := lst[i]
			s.states[g].Release(0, r.path, r.start)
			s.recs[g][r.idx] = nil
			s.putRec(r)
		}
		pm.newByGroup[g] = lst[:0]
		for _, r := range pm.oldByGroup[g] {
			if err := s.states[g].Reserve(0, r.path, r.start); err != nil {
				panic(fmt.Sprintf("core: internal: session rollback failed: %v", err))
			}
			s.recs[g][r.idx] = r
		}
		pm.oldByGroup[g] = pm.oldByGroup[g][:0]
	}
	if pm.swapped {
		s.shiftCross(s.cs, s.csAlt)
		s.cs, s.csAlt = s.csAlt, s.cs
		s.cn, s.cnAlt = s.cnAlt, s.cn
		pm.swapped = false
	}
}

// validatePlacement is ValidatePlacement against session-owned scratch.
func (s *Session) validatePlacement(coreSwitch, coreNI []int) error {
	ev := s.ev
	if len(coreSwitch) != ev.numCores || len(coreNI) != ev.numCores {
		return fmt.Errorf("core: fixed placement has wrong length (switch %d, NI %d entries, design has %d cores)",
			len(coreSwitch), len(coreNI), ev.numCores)
	}
	numNIs := ev.top.NumSwitches() * ev.p.NIsPerSwitch
	if cap(s.sc.seats) < numNIs {
		s.sc.seats = make([]int, numNIs)
	}
	seats := s.sc.seats[:numNIs]
	for i := range seats {
		seats[i] = 0
	}
	for c := 0; c < ev.numCores; c++ {
		sw, ni := coreSwitch[c], coreNI[c]
		if sw < 0 {
			continue
		}
		if sw >= ev.top.NumSwitches() || ni < 0 || ni >= numNIs || ni/ev.p.NIsPerSwitch != sw {
			return fmt.Errorf("core: fixed placement of core %d (switch %d, NI %d) invalid", c, sw, ni)
		}
		seats[ni]++
		if seats[ni] > ev.p.CoresPerNI {
			return fmt.Errorf("core: fixed placement overfills NI %d (%d cores, capacity %d)", ni, seats[ni], ev.p.CoresPerNI)
		}
	}
	return nil
}

// niCapacityCheck rejects moves that are infeasible regardless of routing:
// every pair a core sources (sinks) crosses its NI's egress (ingress) link,
// and each pair needs at least its bandwidth-driven slot count there, so a
// group's total demand on any NI link is bounded below by the sum of its
// cores' demands. When a moved-to NI exceeds the slot table on that bound,
// no re-route — incremental or from scratch — can succeed, and the
// expensive fallback is skipped. The bound is exact-necessary, so no
// feasible move is ever rejected here.
func (s *Session) niCapacityCheck(coreNI []int, moved []int) error {
	T := s.ev.p.SlotTableSize
	for mi, c := range moved {
		ni := coreNI[c]
		if ni < 0 {
			continue
		}
		dup := false
		for _, c2 := range moved[:mi] {
			if coreNI[c2] == ni {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for g := range s.ev.prep.Groups {
			sumOut, sumIn := 0, 0
			for c2, n := range coreNI {
				if n == ni {
					sumOut += s.ev.remOutTpl[g][c2]
					sumIn += s.ev.remInTpl[g][c2]
				}
			}
			if sumOut > T || sumIn > T {
				return errNICapacity
			}
		}
	}
	return nil
}

// switchCapacityCheck extends the NI bound to the mesh side: every pair
// between distinct switches must leave its source switch through one of its
// outgoing mesh links and enter the destination switch through an incoming
// one, so a group's cross-switch demand at a switch is bounded by its link
// degree times the slot table. Only the switches whose core membership the
// move changes are re-checked. Like the NI bound this is exact-necessary:
// violating it proves the placement infeasible before any routing runs.
//
// The demand comes from the maintained sums, not a scan: the check first
// shifts the affected pairs' share from the current placement to
// coreSwitch. On rejection it shifts it back; on success the shift stays
// with the move, which Keep commits and rollbackMove reverts.
func (s *Session) switchCapacityCheck(coreSwitch []int, moved []int) error {
	T := s.ev.p.SlotTableSize
	buf := s.sc.swCheck[:0]
	for _, c := range moved {
		for _, sw := range [2]int{coreSwitch[c], s.cs[c]} {
			if sw < 0 {
				continue
			}
			seen := false
			for _, s2 := range buf {
				if s2 == sw {
					seen = true
					break
				}
			}
			if !seen {
				buf = append(buf, sw)
			}
		}
	}
	s.sc.swCheck = buf
	s.shiftCross(s.cs, coreSwitch)
	numGroups := len(s.ev.prep.Groups)
	for _, sw := range buf {
		cap := s.ev.top.Degree(topology.SwitchID(sw)) * T
		row := sw * numGroups
		for g := 0; g < numGroups; g++ {
			if s.crossOut[row+g] > cap || s.crossIn[row+g] > cap {
				s.shiftCross(coreSwitch, s.cs)
				return errSwitchCapacity
			}
		}
	}
	return nil
}

// Keep commits the pending move and recycles the displaced records.
func (s *Session) Keep() {
	if !s.pending {
		return
	}
	pm := &s.pm
	s.stats = pm.stats
	for _, g := range pm.rebuilt {
		for i, r := range pm.snap[g] {
			if r != nil {
				s.putRec(r)
				pm.snap[g][i] = nil
			}
		}
	}
	pm.rebuilt = pm.rebuilt[:0]
	for g := range pm.oldByGroup {
		for _, r := range pm.oldByGroup[g] {
			s.putRec(r)
		}
		pm.oldByGroup[g] = pm.oldByGroup[g][:0]
		pm.newByGroup[g] = pm.newByGroup[g][:0]
	}
	pm.swapped = false
	s.pending = false
}

// Undo rolls back the pending move, restoring the previous configuration
// exactly.
func (s *Session) Undo() {
	if !s.pending {
		return
	}
	s.pending = false
	s.rollbackMove()
}

// Result materializes the current committed configuration as a complete
// Result, equivalent in shape to an Evaluator.Evaluate output. It must not be
// called while a move is pending. All reservation data is copied out of the
// session: the session recycles its record buffers move over move, so a
// result that aliased them would be corrupted by the next TryMove.
func (s *Session) Result() *Result {
	if s.pending {
		panic("core: Session.Result with a pending move")
	}
	mapping := &Mapping{
		Topology:   s.ev.top,
		Params:     s.ev.p,
		Prep:       s.ev.prep,
		CoreSwitch: append([]int(nil), s.cs...),
		CoreNI:     append([]int(nil), s.cn...),
	}
	// One shared Assignment per (group, pair), mirroring the mapper.
	asn := make([]map[traffic.PairKey]*Assignment, len(s.recs))
	for g := range s.recs {
		asn[g] = make(map[traffic.PairKey]*Assignment)
		for _, r := range s.recs[g] {
			if r == nil {
				continue
			}
			asn[g][r.key] = &Assignment{
				Path:      append([]int(nil), r.path...),
				Starts:    append([]int(nil), r.start...),
				SlotCount: len(r.start),
			}
		}
	}
	mapping.Configs = make([]*Config, len(s.ev.prep.UseCases))
	for uc := range s.ev.prep.UseCases {
		g := s.ev.prep.GroupOf[uc]
		cfg := &Config{Assignments: make(map[traffic.PairKey]*Assignment, len(s.ev.ucPairs[uc]))}
		for _, ps := range s.ev.ucPairs[uc] {
			cfg.Assignments[ps.key] = asn[g][ps.key]
		}
		mapping.Configs[uc] = cfg
	}
	dim := topology.Dim{Rows: s.ev.top.Rows, Cols: s.ev.top.Cols}
	return &Result{Mapping: mapping, Attempts: []Attempt{{Dim: dim}}, Stats: s.stats}
}

// statsFromRecs recomputes the summary statistics of the current
// reservation set — the same quantities computeStats derives from a
// finished Mapping, without materializing one. The iteration order matches
// the legacy per-use-case walk exactly, so the floating-point sums are
// bit-identical to the one-shot path's.
func (s *Session) statsFromRecs() Stats {
	var st Stats
	T := s.ev.p.SlotTableSize
	minFree := T
	for _, state := range s.states {
		if f := state.MinFree(); f < minFree {
			minFree = f
		}
	}
	st.MaxLinkUtil = 1 - float64(minFree)/float64(T)
	var bwHops, bwSum float64
	for uc := range s.ev.prep.UseCases {
		g := s.ev.prep.GroupOf[uc]
		recsG := s.recs[g]
		stats := s.ev.ucPairs[uc]
		for i, idx := range s.ev.ucPairIdx[uc] {
			r := recsG[idx]
			if r == nil {
				continue
			}
			st.SlotsReserved += len(r.start) * len(r.path)
			bwHops += stats[i].bw * float64(r.hops)
			bwSum += stats[i].bw
		}
	}
	if bwSum > 0 {
		st.AvgMeshHops = bwHops / bwSum
	}
	return st
}

func (ev *Evaluator) niEgress(globalNI int) int  { return ev.meshLinks + 2*globalNI }
func (ev *Evaluator) niIngress(globalNI int) int { return ev.meshLinks + 2*globalNI + 1 }
