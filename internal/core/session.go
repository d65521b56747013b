package core

import (
	"fmt"
	"math/bits"
	"slices"

	"nocmap/internal/route"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
)

// Session is incremental evaluation over one evolving placement. It owns a
// fully-configured state (every flow of every group routed and reserved)
// and evaluates a move — a few cores changing seats — by tearing down and
// re-routing only the pairs whose endpoints moved, instead of
// re-configuring the world. The groups of a fixed placement never share
// slot tables, so a move is evaluated one smooth-switching group at a
// time: the group's affected pairs are torn down and re-routed against
// its standing reservations, and when that delta path cannot re-route a
// pair (the incremental order wedges where a from-scratch pass would not),
// the group alone falls back to a from-scratch re-route. One group's
// from-scratch failure rejects the move without tearing down or evaluating
// the groups after it.
//
// Before any routing, a move passes two necessary-capacity prechecks. The
// switch-side one reads sums the session keeps current: per group and
// switch, the slot demand crossing into and out of the switch under the
// placement. A move shifts only its affected pairs' share of those sums
// (and a rejected or undone move shifts it back), so the precheck never
// rescans the design. The affected pairs are then filed into per-group
// buckets, and the groups are evaluated in the session's group order, in
// which a group whose from-scratch pass rejected a move moves to the
// front: the next infeasible move most often fails in the same group, and
// is then rejected before any other group is touched. Every group's
// verdict and reservations are independent of the order, so it changes
// only how soon an infeasible move is rejected, never an outcome.
//
// A move is two-phase: TryMove reserves the new configuration and returns
// its statistics with the move pending; Keep commits it, Undo restores the
// previous configuration exactly. This is the shape a Metropolis acceptance
// loop needs — the annealer scores the candidate before deciding.
//
// A move is undone through one per-group journal, whichever way the group
// was re-routed: the records it released and the records it granted.
//
// A record's storage is fixed by the design: a start set of tdma.Words(T)
// words and room for a simple path on the fabric. The session carves one
// record per (group, pair) out of one backing array when it is built, and
// a move that finds the freelist empty carves a batch more, so no record —
// fresh, cloned or recycled — ever grows. The move path performs no heap
// allocation in steady state: records, the journals and every scratch live
// on the session and are recycled move over move (the first moves that
// hold more records than one configuration carve them, a group's journal
// grows to the group's pair count on its first rebuild, and error
// formatting on cold validation paths is the deliberate exception).
// TestSessionMoveZeroAlloc gates this at 0 allocs/op after a warm-up, and
// TestAnnealColdChainAllocs bounds a whole anneal without one.
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

	// freeRecs recycles records — and, through them, their path and start
	// set storage — across moves.
	freeRecs []*resRecord

	// order is the sequence TryMove evaluates the groups in, a permutation
	// of the group indices; a group whose from-scratch pass fails moves to
	// its front.
	order []int

	sc moveScratch
}

// pendingMove remembers how to undo the in-flight TryMove. Its slices are
// reused across moves.
type pendingMove struct {
	stats Stats

	// reached lists the groups whose affected pairs the move tore down, in
	// evaluation order; only they have anything to commit or undo.
	reached []int

	// The journal of every reached group: the records the move released
	// (the bucket's for a delta re-route, all of the group's for a
	// from-scratch rebuild) and the fresh records it granted. Keep recycles
	// the old ones; rollbackMove releases the new ones and re-reserves the
	// old ones.
	oldByGroup [][]*resRecord
	newByGroup [][]*resRecord

	// rebuilds counts the reached groups that fell back to a from-scratch
	// rebuild.
	rebuilds int
}

// moveScratch is the reusable working state of one session's moves.
type moveScratch struct {
	res      reserveScratch
	affected []int32
	seenPair []bool
	seats    []int
	swCheck  []int
	// buckets lists, per group, the affected pairs the group tears down
	// and re-routes, in ascending pair order. Every bucket is empty between
	// moves.
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
// evaluator's design, its freelist holding one record per reservation of a
// configuration; callers fill states, records and the placement.
func (ev *Evaluator) newSessionShell() *Session {
	numGroups := len(ev.prep.Groups)
	numPairs := len(ev.pairList)
	reservations := ev.reservations()
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
		// A pending move holds at most the live records and as many new
		// ones.
		freeRecs: make([]*resRecord, 0, 2*reservations),
	}
	s.addRecs(reservations)
	for g := range s.recs {
		s.recs[g] = make([]*resRecord, numPairs)
	}
	s.pm.oldByGroup = make([][]*resRecord, numGroups)
	s.pm.newByGroup = make([][]*resRecord, numGroups)
	s.pm.reached = make([]int, 0, numGroups)
	s.order = make([]int, numGroups)
	for g := range s.order {
		s.order[g] = g
	}
	s.sc.res.route = route.NewScratch()
	s.sc.affected = make([]int32, 0, numPairs)
	s.sc.seenPair = make([]bool, numPairs)
	s.sc.seats = make([]int, ev.numNIs())
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

// recBatch is how many records a move that finds the freelist empty
// carves at once.
const recBatch = 16

// addRecs puts n fresh records on the freelist, carved out of one backing
// array each for the records, their start sets and their path buffers.
func (s *Session) addRecs(n int) {
	w, maxPath := tdma.Words(s.ev.p.SlotTableSize), s.ev.maxPathLen()
	recs := make([]resRecord, n)
	sets := make([]uint64, n*w)
	paths := make([]int, n*maxPath)
	for i := range recs {
		recs[i].start = sets[i*w : (i+1)*w : (i+1)*w]
		recs[i].path = paths[i*maxPath : i*maxPath : (i+1)*maxPath]
		s.freeRecs = append(s.freeRecs, &recs[i])
	}
}

func (s *Session) getRec() *resRecord {
	if len(s.freeRecs) == 0 {
		s.addRecs(recBatch)
	}
	n := len(s.freeRecs)
	r := s.freeRecs[n-1]
	s.freeRecs = s.freeRecs[:n-1]
	return r
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
	s := ev.newSessionShell()
	if err := ev.validatePlacement(m.CoreSwitch, m.CoreNI, s.sc.seats); err != nil {
		return nil, err
	}
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
			r.group, r.idx = g, idx
			r.path = append(r.path[:0], a.Path...)
			r.hops = ev.pathHops(r.path)
			err := tdma.StartsInto(r.start, a.Starts, ev.p.SlotTableSize)
			if err == nil {
				err = s.states[g].ReserveStarts(r.path, r.start)
			}
			if err != nil {
				return nil, fmt.Errorf("core: result not reservable (pair %d->%d, group %d): %w", ps.key.Src, ps.key.Dst, g, err)
			}
			r.slots = int32(onesCount(r.start))
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
	copy(c.order, s.order)
	copy(c.crossOut, s.crossOut)
	copy(c.crossIn, s.crossIn)
	for g := range s.states {
		c.states[g] = s.states[g].Clone()
		for idx, r := range s.recs[g] {
			if r == nil {
				continue
			}
			nr := c.getRec()
			nr.group, nr.idx, nr.hops, nr.slots = r.group, r.idx, r.hops, r.slots
			nr.path = append(nr.path[:0], r.path...)
			copy(nr.start, r.start)
			c.recs[g][idx] = nr
		}
	}
	return c, nil
}

// Stats returns the statistics of the current committed configuration.
func (s *Session) Stats() Stats { return s.stats }

// PlacementInto copies the current placement into the caller's buffers
// (each must have the design's core count).
func (s *Session) PlacementInto(coreSwitch, coreNI []int) {
	copy(coreSwitch, s.cs)
	copy(coreNI, s.cn)
}

// TryMove evaluates the placement (coreSwitch, coreNI), which must differ
// from the session's current placement only at the listed moved cores. On
// success the move is pending — commit with Keep or roll back with Undo —
// and the returned Stats describe the new configuration. On error the
// session's configuration is unchanged and no move is pending; a move
// rejected by a group's from-scratch pass moves that group to the front of
// the session's group order, which decides how soon later infeasible moves
// are rejected but never a verdict, a reservation or a statistic.
func (s *Session) TryMove(coreSwitch, coreNI []int, moved ...int) (Stats, error) {
	if s.pending {
		return Stats{}, errPendingMove
	}
	if err := s.ev.validatePlacement(coreSwitch, coreNI, s.sc.seats); err != nil {
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

	// File every affected pair into the bucket of each group that
	// re-routes it; nothing is torn down yet.
	buckets := s.sc.buckets
	for _, idx := range affected {
		for gi, g := range s.ev.planOf[idx].groups {
			if s.recs[g][idx] == nil {
				s.clearBuckets()
				s.rollbackMove()
				return Stats{}, fmt.Errorf("core: internal: pair %d missing from group %d", idx, g)
			}
			buckets[g] = append(buckets[g], groupPair{idx: idx, gi: int32(gi)})
		}
	}

	// Evaluate group by group in the session's order. The groups of a
	// fixed placement are fully independent — each owns its slot tables —
	// so a group whose delta re-route wedges falls back to a from-scratch
	// re-route of that group alone (identical to its share of a full
	// re-evaluation), and a group whose from-scratch pass fails proves the
	// whole move infeasible: it moves to the front of the order, and the
	// groups after it are never torn down.
	for k, g := range s.order {
		bucket := buckets[g]
		if len(bucket) == 0 {
			continue
		}
		buckets[g] = bucket[:0]
		pm.reached = append(pm.reached, g)
		if !s.rerouteGroup(g, bucket) && !s.rebuildGroup(g) {
			copy(s.order[1:k+1], s.order[:k])
			s.order[0] = g
			s.clearBuckets()
			s.rollbackMove()
			return Stats{}, errMoveInfeasible
		}
	}
	pm.stats = s.statsFromRecs()
	s.pending = true
	return pm.stats, nil
}

// rerouteGroup tears down group g's affected pairs (its bucket) and
// re-routes them in ascending pair order against the group's standing
// reservations. It reports false as soon as a pair does not fit; the
// records granted so far stay pending for rebuildGroup to undo.
func (s *Session) rerouteGroup(g int, bucket []groupPair) bool {
	pm := &s.pm
	st, recs := s.states[g], s.recs[g]
	for _, e := range bucket {
		r := recs[e.idx]
		st.Release(r.path, r.start)
		recs[e.idx] = nil
		pm.oldByGroup[g] = append(pm.oldByGroup[g], r)
	}
	for _, e := range bucket {
		rec := s.getRec()
		err := s.ev.reserveSlotsInto(&s.sc.res, st, s.cs, s.cn,
			s.ev.pairList[e.idx], s.ev.pairSlots[g][e.idx], s.ev.planOf[e.idx].latSlots[e.gi], rec)
		if err != nil {
			s.putRec(rec)
			return false
		}
		rec.group, rec.idx = g, e.idx
		recs[e.idx] = rec
		pm.newByGroup[g] = append(pm.newByGroup[g], rec)
	}
	return true
}

// rebuildGroup re-routes every pair of group g from scratch in the global
// order, the group's share of a full re-evaluation of the placement. It
// drops the partial delta's grants, journals every other live record of the
// group as released and resets the group's slot tables, so whatever the
// outcome, rollbackMove restores the group from its journals like any
// delta. It reports false when a pair does not fit.
func (s *Session) rebuildGroup(g int) bool {
	pm := &s.pm
	st, recs := s.states[g], s.recs[g]
	for _, r := range pm.newByGroup[g] {
		recs[r.idx] = nil
		s.putRec(r)
	}
	pm.newByGroup[g] = pm.newByGroup[g][:0]
	for _, pd := range s.ev.groupPairs[g] {
		if r := recs[pd.idx]; r != nil {
			recs[pd.idx] = nil
			pm.oldByGroup[g] = append(pm.oldByGroup[g], r)
		}
	}
	st.Reset()
	pm.rebuilds++
	for _, pd := range s.ev.groupPairs[g] {
		rec := s.getRec()
		err := s.ev.reserveSlotsInto(&s.sc.res, st, s.cs, s.cn, pd.key, pd.slots, pd.latSlots, rec)
		if err != nil {
			s.putRec(rec)
			return false
		}
		rec.group, rec.idx = g, pd.idx
		recs[pd.idx] = rec
		pm.newByGroup[g] = append(pm.newByGroup[g], rec)
	}
	return true
}

// rollbackMove restores every group the move reached from its journal and
// the placement and cross-switch sums to the pre-move configuration, and
// recycles the rejected records. It runs only after TryMove adopted the
// candidate placement.
func (s *Session) rollbackMove() {
	pm := &s.pm
	for _, g := range pm.reached {
		lst := pm.newByGroup[g]
		for i := len(lst) - 1; i >= 0; i-- {
			r := lst[i]
			s.states[g].Release(r.path, r.start)
			s.recs[g][r.idx] = nil
			s.putRec(r)
		}
		pm.newByGroup[g] = lst[:0]
		for _, r := range pm.oldByGroup[g] {
			if err := s.states[g].ReserveStarts(r.path, r.start); err != nil {
				panic(fmt.Sprintf("core: internal: session rollback failed: %v", err))
			}
			s.recs[g][r.idx] = r
		}
		pm.oldByGroup[g] = pm.oldByGroup[g][:0]
	}
	pm.reached = pm.reached[:0]
	pm.rebuilds = 0
	s.shiftCross(s.cs, s.csAlt)
	s.cs, s.csAlt = s.csAlt, s.cs
	s.cn, s.cnAlt = s.cnAlt, s.cn
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
	for _, g := range pm.reached {
		for _, r := range pm.oldByGroup[g] {
			s.putRec(r)
		}
		pm.oldByGroup[g] = pm.oldByGroup[g][:0]
		pm.newByGroup[g] = pm.newByGroup[g][:0]
	}
	pm.reached = pm.reached[:0]
	pm.rebuilds = 0
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
	n, total := 0, 0
	for _, recs := range s.recs {
		for _, r := range recs {
			if r != nil {
				n++
				total += len(r.path) + int(r.slots)
			}
		}
	}
	at := grid[int32](len(s.recs), len(s.ev.pairList))
	asn := make([]Assignment, 0, n)
	buf := make([]int, 0, total)
	for g, recs := range s.recs {
		for idx, r := range recs {
			if r != nil {
				asn, buf = appendAssignment(asn, buf, r.path, r.start)
				at[g][idx] = int32(len(asn))
			}
		}
	}
	configs, err := s.ev.configsOf(at, asn)
	if err != nil {
		// A committed session holds a reservation for every (group, pair).
		panic(err)
	}
	mapping := &Mapping{
		Topology:   s.ev.top,
		Params:     s.ev.p,
		Prep:       s.ev.prep,
		CoreSwitch: append([]int(nil), s.cs...),
		CoreNI:     append([]int(nil), s.cn...),
		Configs:    configs,
	}
	dim := topology.Dim{Rows: s.ev.top.Rows, Cols: s.ev.top.Cols}
	return &Result{Mapping: mapping, Attempts: []Attempt{{Dim: dim}}, Stats: s.stats}
}

// statsFromRecs derives the statistics of the session's reservation set.
func (s *Session) statsFromRecs() Stats { return s.ev.statsOf(s.states, s.recs, nil) }

// statsOf derives the summary statistics of a configuration from its
// per-group slot-table states and its reservations by group and pair
// index: a session's records when recs is set, otherwise the [group][pair]
// journal positions of the arena sc. It walks each use-case's flows in
// declared order, never a map's: float summation is order-sensitive at the
// last ulp, and run-to-run stats of one deterministic engine must be
// bit-identical. Every Result's Stats come from here, whether a session,
// Evaluate or the growth loop built it. The two lookups share the loop
// rather than a callback: a session computes stats on every move.
func (ev *Evaluator) statsOf(states []*tdma.State, recs [][]*resRecord, sc *evalScratch) Stats {
	var st Stats
	T := ev.p.SlotTableSize
	minFree := T
	for _, state := range states {
		if f := state.MinFree(); f < minFree {
			minFree = f
		}
	}
	st.MaxLinkUtil = 1 - float64(minFree)/float64(T)
	var bwHops, bwSum float64
	for uc, pairs := range ev.ucPairs {
		g := ev.prep.GroupOf[uc]
		for i, idx := range ev.ucPairIdx[uc] {
			var links int
			var slots, hops int32
			if recs != nil {
				r := recs[g][idx]
				if r == nil {
					continue
				}
				slots, links, hops = r.slots, len(r.path), r.hops
			} else {
				j := int(sc.configs[g][idx]) - 1
				if j < 0 {
					continue
				}
				path, _ := sc.reservation(j)
				slots, links, hops = sc.journal[j].slots, len(path), ev.pathHops(path)
			}
			st.SlotsReserved += int(slots) * links
			bwHops += pairs[i].bw * float64(hops)
			bwSum += pairs[i].bw
		}
	}
	if bwSum > 0 {
		st.AvgMeshHops = bwHops / bwSum
	}
	return st
}

// onesCount counts the starts of a start set.
func onesCount(set []uint64) int {
	n := 0
	for _, x := range set {
		n += bits.OnesCount64(x)
	}
	return n
}

func (ev *Evaluator) niEgress(globalNI int) int  { return ev.meshLinks + 2*globalNI }
func (ev *Evaluator) niIngress(globalNI int) int { return ev.meshLinks + 2*globalNI + 1 }
