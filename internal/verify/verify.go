// Package verify performs the analytic performance verification of phase 4
// of the methodology: it checks that a produced mapping really delivers the
// guarantees the mapper claims, independently re-deriving every invariant
// from the raw configuration.
//
// Checked invariants, per use-case configuration:
//
//  1. Structure — every flow has an assignment; its path starts at the
//     source core's NI egress link, crosses contiguous mesh links from the
//     source switch to the destination switch, and ends at the destination
//     core's NI ingress link.
//  2. Bandwidth — the reserved slot count grants at least the flow's
//     bandwidth at the configured frequency, with one start slot per
//     reserved slot, each inside the slot table; group-shared assignments
//     grant the group's maximum.
//  3. Contention freedom — within one configuration (equivalently, one
//     smooth-switching group) no two flows claim the same (link, slot) when
//     slot alignment along paths is applied.
//  4. Latency — the analytic worst case (max slot gap + path length + 1
//     slot periods) meets every flow's constraint.
//  5. Placement — cores sit on valid switches/NIs and NI occupancy respects
//     the per-NI core bound.
//
// The invariants are re-derived from Mapping's raw fields only: the
// placement slices, the per-use-case assignment maps and the topology's
// links, never from the mapper's slot tables or statistics. Check looks each
// flow's assignment up once, numbers the distinct flow pairs densely, and
// rebuilds every group's slot tables in one flat (link, slot) owner array;
// its scratch is pooled, so checking a sound mapping allocates nothing.
//
// The violation order is deterministic: placement violations by core, then
// NI overloads by ascending NI, then per use-case and flow in design order,
// then per group the diverging members and the bandwidth shortfalls in
// first-seen flow order, then the contention claims group by group. A
// use-case without a configuration is reported once and its flows count as
// unassigned everywhere else.
//
// Check runs after every mapping the toolkit produces: nocmap refuses to
// emit back-end artifacts on violations, and the mapping service attaches
// the violation list to every response it serves (and caches), so a cached
// answer carries the same verification verdict as the original run.
package verify

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"nocmap/internal/core"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
)

// Violation describes one failed invariant.
type Violation struct {
	UseCase int
	Pair    traffic.PairKey
	Reason  string
}

func (v Violation) String() string {
	return fmt.Sprintf("use-case %d flow %d->%d: %s", v.UseCase, v.Pair.Src, v.Pair.Dst, v.Reason)
}

// maxPooledCells bounds the (link, slot) owner table and the pair index a
// pooled checker keeps, so one check of a huge design does not stay
// resident.
const maxPooledCells = 1 << 20

var checkerPool = sync.Pool{New: func() any { return new(checker) }}

// checker is the scratch of one Check call. Flow instances — flow j of
// use-case uc — are numbered in design order: instance flowOff[uc]+j.
type checker struct {
	// slots is an open-addressing index from flow pair to dense pair
	// index, a power of two more than twice the flow instances. A slot is
	// live in this call when its stamp is the call's, so it is cleared
	// only when the stamp wraps.
	slots   []pairSlot
	stamp   uint32
	keys    []traffic.PairKey  // dense pair index -> flow pair
	flowOff []int32            // per use-case, its first flow instance
	pair    []int32            // per flow instance, its pair index
	asg     []*core.Assignment // per flow instance, its assignment or nil

	// Per pair, for the group being checked. Every pair first seen in a
	// group takes the next id; the group's ids are exactly those above
	// base, so neither id nor owner is cleared between groups or calls.
	id    []uint32
	last  []*core.Assignment // the assignment the pair's latest flow holds
	maxBW []float64          // the group's largest bandwidth for the pair
	order []int32            // the group's pairs in first-seen order
	base  uint32
	top   uint32 // the last id handed out

	niLoad []int32
	// owner holds, per (link, slot) cell at link*T+slot, the id of the last
	// pair claiming it. Cells outside the fabric — link indices or slots a
	// corrupt mapping puts beyond it — go to stray instead, so they are
	// judged exactly like in-range cells.
	owner []uint32
	stray map[[2]int]uint32
	cont  []Violation // the contention violations, reported last
}

// pairSlot is one slot of checker.slots: pair index p of this call's keys.
type pairSlot struct {
	stamp uint32
	p     int32
}

// Check validates all invariants and returns every violation found (empty =
// the mapping is sound).
func Check(m *core.Mapping) []Violation {
	c := checkerPool.Get().(*checker)
	out := c.check(m)
	clear(c.asg)
	clear(c.last)
	clear(c.cont)
	if cap(c.owner) <= maxPooledCells && len(c.slots) <= maxPooledCells {
		checkerPool.Put(c)
	}
	return out
}

func (c *checker) check(m *core.Mapping) []Violation {
	c.index(m)
	out := c.checkPlacement(m, nil)
	out = c.checkUseCases(m, out)
	out = c.checkGroups(m, out)
	return append(out, c.cont...)
}

// config returns use-case uc's configuration, nil when there is none.
func config(m *core.Mapping, uc int) *core.Config {
	if uc >= len(m.Configs) {
		return nil
	}
	return m.Configs[uc]
}

// index numbers the pairs and looks up every flow instance's assignment —
// the only Assignments lookups of the check.
func (c *checker) index(m *core.Mapping) {
	flows := 0
	for _, u := range m.Prep.UseCases {
		flows += len(u.Flows)
	}
	if size := 2 << bits.Len(uint(flows)); len(c.slots) < size {
		c.slots = make([]pairSlot, size)
		c.stamp = 0
	}
	if c.stamp++; c.stamp == 0 {
		clear(c.slots)
		c.stamp = 1
	}
	c.keys = c.keys[:0]
	c.flowOff = c.flowOff[:0]
	c.pair = c.pair[:0]
	c.asg = c.asg[:0]
	for uc, u := range m.Prep.UseCases {
		c.flowOff = append(c.flowOff, int32(len(c.pair)))
		var asgs map[traffic.PairKey]*core.Assignment
		if cfg := config(m, uc); cfg != nil {
			asgs = cfg.Assignments
		}
		for _, f := range u.Flows {
			key := f.Key()
			c.pair = append(c.pair, c.pairIndex(key))
			c.asg = append(c.asg, asgs[key])
		}
	}
	n := len(c.keys)
	if cap(c.id) < n {
		c.id = make([]uint32, n)
		c.last = make([]*core.Assignment, n)
		c.maxBW = make([]float64, n)
	}
	c.id, c.last, c.maxBW = c.id[:n], c.last[:n], c.maxBW[:n]
	clear(c.stray)
	c.cont = c.cont[:0]
}

// pairIndex returns key's dense pair index, numbering it if it is new.
func (c *checker) pairIndex(key traffic.PairKey) int32 {
	mask := uint64(len(c.slots) - 1)
	h := (uint64(key.Src)*0x9e3779b97f4a7c15 ^ uint64(key.Dst)) * 0xbf58476d1ce4e5b9
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.stamp != c.stamp {
			*s = pairSlot{stamp: c.stamp, p: int32(len(c.keys))}
			c.keys = append(c.keys, key)
			return s.p
		}
		if c.keys[s.p] == key {
			return s.p
		}
	}
}

func (c *checker) checkPlacement(m *core.Mapping, out []Violation) []Violation {
	p := m.Params
	nis := max(m.Topology.NumSwitches()*p.NIsPerSwitch, 0)
	if cap(c.niLoad) < nis {
		c.niLoad = make([]int32, nis)
	}
	c.niLoad = c.niLoad[:nis]
	clear(c.niLoad)
	for cid, s := range m.CoreSwitch {
		ni := m.CoreNI[cid]
		if s < 0 {
			if ni >= 0 {
				out = append(out, Violation{Reason: fmt.Sprintf("core %d has NI %d but no switch", cid, ni)})
			}
			continue
		}
		if s >= m.Topology.NumSwitches() {
			out = append(out, Violation{Reason: fmt.Sprintf("core %d on invalid switch %d", cid, s)})
			continue
		}
		if ni < 0 || ni/p.NIsPerSwitch != s {
			out = append(out, Violation{Reason: fmt.Sprintf("core %d NI %d not on switch %d", cid, ni, s)})
			continue
		}
		c.niLoad[ni]++ // ni/NIsPerSwitch is a valid switch, so ni < nis
	}
	for ni, n := range c.niLoad {
		if n > 0 && int(n) > p.CoresPerNI {
			out = append(out, Violation{Reason: fmt.Sprintf("NI %d hosts %d cores, capacity %d", ni, n, p.CoresPerNI)})
		}
	}
	return out
}

// bad appends a violation of flow pair key in use-case uc.
func bad(out []Violation, uc int, key traffic.PairKey, format string, args ...any) []Violation {
	return append(out, Violation{UseCase: uc, Pair: key, Reason: fmt.Sprintf(format, args...)})
}

// checkUseCases checks structure, bandwidth and latency per flow instance.
func (c *checker) checkUseCases(m *core.Mapping, out []Violation) []Violation {
	meshLinks := m.MeshLinks()
	T := m.Params.SlotTableSize
	slotBW := m.Params.SlotBandwidthMBs()
	for uc, u := range m.Prep.UseCases {
		if config(m, uc) == nil {
			out = append(out, Violation{UseCase: uc, Reason: "missing configuration"})
			continue
		}
		asg := c.asg[c.flowOff[uc]:]
		for j := range u.Flows {
			f := &u.Flows[j]
			key := f.Key()
			a := asg[j]
			if a == nil {
				out = bad(out, uc, key, "no assignment")
				continue
			}
			// 1. Structure.
			if len(a.Path) < 2 {
				out = bad(out, uc, key, "path too short (%d links)", len(a.Path))
				continue
			}
			wantEgress := m.NIEgressLink(m.CoreNI[f.Src])
			wantIngress := m.NIIngressLink(m.CoreNI[f.Dst])
			if a.Path[0] != wantEgress {
				out = bad(out, uc, key, "path starts at link %d, want NI egress %d", a.Path[0], wantEgress)
			}
			if a.Path[len(a.Path)-1] != wantIngress {
				out = bad(out, uc, key, "path ends at link %d, want NI ingress %d", a.Path[len(a.Path)-1], wantIngress)
			}
			cur := m.CoreSwitch[f.Src]
			okMesh := true
			for _, l := range a.Path[1 : len(a.Path)-1] {
				if l < 0 || l >= meshLinks {
					out = bad(out, uc, key, "interior link %d is not a mesh link", l)
					okMesh = false
					break
				}
				link := m.Topology.Link(topology.LinkID(l))
				if int(link.From) != cur {
					out = bad(out, uc, key, "mesh path discontinuous at link %d", l)
					okMesh = false
					break
				}
				cur = int(link.To)
			}
			if okMesh && cur != m.CoreSwitch[f.Dst] {
				out = bad(out, uc, key, "mesh path ends at switch %d, want %d", cur, m.CoreSwitch[f.Dst])
			}
			// 2. Bandwidth.
			granted := float64(a.SlotCount) * slotBW
			if granted < f.BandwidthMBs-1e-6 {
				out = bad(out, uc, key, "granted %.2f MB/s < required %.2f", granted, f.BandwidthMBs)
			}
			if len(a.Starts) != a.SlotCount {
				out = bad(out, uc, key, "slot count %d != starts %d", a.SlotCount, len(a.Starts))
			}
			for _, st := range a.Starts {
				if st < 0 || st >= T {
					out = bad(out, uc, key, "start slot %d outside the %d-slot table", st, T)
				}
			}
			// 4. Latency.
			if f.MaxLatencyNS > 0 {
				budget := m.Params.LatencyBudgetSlots(f.MaxLatencyNS)
				if wc := tdma.WorstCaseLatencySlots(a.Starts, len(a.Path), T); wc > budget {
					out = bad(out, uc, key, "worst-case latency %d slots exceeds budget %d", wc, budget)
				}
			}
		}
	}
	return out
}

// checkGroups walks every smooth-switching group once. It verifies that the
// group's use-cases share identical assignments for shared pairs, sized by
// the group maximum, and rebuilds the group's slot tables from scratch,
// collecting any (link, slot) claimed twice in c.cont.
func (c *checker) checkGroups(m *core.Mapping, out []Violation) []Violation {
	T := m.Params.SlotTableSize
	links := m.TotalLinks()
	if cells := links * max(T, 0); cap(c.owner) < cells {
		c.owner = make([]uint32, cells)
	} else {
		c.owner = c.owner[:cells]
	}
	slotBW := m.Params.SlotBandwidthMBs()
	for gi, group := range m.Prep.Groups {
		if c.top > math.MaxUint32-uint32(len(c.keys)) {
			// The ids would wrap within this group: forget every claim.
			clear(c.id[:cap(c.id)])
			clear(c.owner[:cap(c.owner)])
			clear(c.stray)
			c.top = 0
		}
		c.base = c.top
		c.order = c.order[:0]
		for _, uc := range group {
			flows := m.Prep.UseCases[uc].Flows
			off := int(c.flowOff[uc])
			for j := range flows {
				f := &flows[j]
				p, a := c.pair[off+j], c.asg[off+j]
				if c.id[p] > c.base {
					// A shared pair, already walked.
					if c.last[p] != a {
						out = append(out, Violation{UseCase: uc, Pair: c.keys[p],
							Reason: "group members have diverging assignments for a shared pair"})
					}
					c.last[p] = a
					if f.BandwidthMBs > c.maxBW[p] {
						c.maxBW[p] = f.BandwidthMBs
					}
					continue
				}
				c.top++
				c.id[p] = c.top
				c.last[p] = a
				c.maxBW[p] = 0
				if f.BandwidthMBs > 0 {
					c.maxBW[p] = f.BandwidthMBs
				}
				c.order = append(c.order, p)
				if a != nil {
					c.claim(gi, uc, c.keys[p], a, T, links)
				}
			}
		}
		for _, p := range c.order {
			a := c.last[p]
			if a == nil {
				continue
			}
			granted := float64(a.SlotCount) * slotBW
			if granted < c.maxBW[p]-1e-6 {
				out = append(out, Violation{Pair: c.keys[p],
					Reason: fmt.Sprintf("group assignment grants %.2f MB/s < group max %.2f", granted, c.maxBW[p])})
			}
		}
	}
	return out
}

// claim enters a's (link, slot) cells under id c.top, reporting each cell
// another pair of the group claimed before. A start inside the table walks
// its slots by increment and wrap; any other start keeps the (start+hop)
// mod T arithmetic, whose cells may fall outside the table.
func (c *checker) claim(gi, uc int, key traffic.PairKey, a *core.Assignment, T, links int) {
	id := c.top
	for _, st := range a.Starts {
		if st >= 0 && st < T {
			slot := st
			for _, link := range a.Path {
				var prev uint32
				if link >= 0 && link < links {
					cell := &c.owner[link*T+slot]
					prev, *cell = *cell, id
				} else {
					prev = c.strayClaim(link, slot, id)
				}
				if prev > c.base && prev != id {
					c.collide(gi, uc, key, link, slot, prev)
				}
				if slot++; slot == T {
					slot = 0
				}
			}
			continue
		}
		for h, link := range a.Path {
			slot := (st + h) % T
			var prev uint32
			if link >= 0 && link < links && slot >= 0 && slot < T {
				cell := &c.owner[link*T+slot]
				prev, *cell = *cell, id
			} else {
				prev = c.strayClaim(link, slot, id)
			}
			if prev > c.base && prev != id {
				c.collide(gi, uc, key, link, slot, prev)
			}
		}
	}
}

// strayClaim claims a cell outside the owner table and returns its
// previous id.
func (c *checker) strayClaim(link, slot int, id uint32) uint32 {
	if c.stray == nil {
		c.stray = make(map[[2]int]uint32)
	}
	cell := [2]int{link, slot}
	prev := c.stray[cell]
	c.stray[cell] = id
	return prev
}

// collide reports that key's claim of (link, slot) hits the group's pair
// with id prev.
func (c *checker) collide(gi, uc int, key traffic.PairKey, link, slot int, prev uint32) {
	other := c.keys[c.order[prev-c.base-1]]
	c.cont = append(c.cont, Violation{UseCase: uc, Pair: key,
		Reason: fmt.Sprintf("group %d: link %d slot %d also claimed by %d->%d",
			gi, link, slot, other.Src, other.Dst)})
}
