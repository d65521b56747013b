// Package tdma models the Æthereal-style TDMA slot tables that provide
// guaranteed-throughput (GT) connections. Every link owns a table of T
// slots. A GT flow that holds slot s on the first link of its path uses slot
// (s+1) mod T on the second link, (s+2) mod T on the third, and so on
// (contention-free routing): flits never wait inside the network, so two
// reservations can conflict only if they claim the same (link, slot) pair,
// which allocation forbids.
//
// Reserving n slots on a path grants n/T of the raw link bandwidth. The
// worst-case latency of a flow is the longest wait for its next reserved
// slot (the maximum cyclic gap between reserved slots) plus the pipeline
// traversal of the path.
//
// A State records only which slots are free: one bitset per link plus the
// link's free-slot count. It does not record who holds a reserved slot, so
// Release frees whatever its path and starts cover; callers release only
// reservations that are live, which Reserve's all-or-nothing check makes
// exclusive.
//
// A State is mutable and not safe for concurrent use; each mapping attempt
// (one engine run, one candidate placement) owns its own States, which is
// how parallel searches — the portfolio engine, the service worker pool —
// stay independent.
package tdma

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// State holds the slot tables of every link of one NoC configuration. The
// mapper keeps one State per smooth-switching group (the paper's key data
// structure): the use-cases of a group carry identical reservations.
type State struct {
	numLinks int
	slots    int
	// words is the number of 64-bit mask words per link, ⌈slots/64⌉.
	words int
	// masks holds each link's free-slot bitset, words consecutive words per
	// link: bit s is set iff slot s is free. A table that fits one word
	// (slots <= 64, every configuration the evaluation uses) answers an
	// alignment query — "is start st free on every link of the path with
	// the contention-free shift applied" — with one rotate-and-AND per link,
	// and Reserve/Release with one rotate, mask and popcount per link.
	// Larger tables walk the bits one slot at a time.
	masks []uint64
	free  []int // per-link free-slot count, kept in sync by Reserve/Release
}

// fullMask returns the all-free mask for a table of `slots` bits.
func fullMask(slots int) uint64 {
	if slots >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << slots) - 1
}

// rotRIn cyclically rotates a slots-bit mask right by h, which must already
// lie in [0, slots): bit i of the result is bit (i+h) mod slots of m. The
// callers step h with a wrap, so the rotation itself never divides.
func rotRIn(m uint64, h, slots int) uint64 {
	if h == 0 {
		return m
	}
	return ((m >> h) | (m << (slots - h))) & fullMask(slots)
}

// nearestSet returns the set bit of the non-zero slots-bit mask cyclically
// nearest to target (in [0, slots)); of two bits at equal distance, the
// lower index. The nearest bit at or after target is the lowest bit of the
// mask rotated down by target, the nearest at or before it the highest bit
// of the mask rotated down by target+1. Every index stays in range by a
// wrap, not a division.
func nearestSet(mask uint64, target, slots int) int {
	next := target + 1
	if next == slots {
		next = 0
	}
	fwd := bits.TrailingZeros64(rotRIn(mask, target, slots))
	bwd := slots - 64 + bits.LeadingZeros64(rotRIn(mask, next, slots))
	up, down := target+fwd, target-bwd
	if up >= slots {
		up -= slots
	}
	if down < 0 {
		down += slots
	}
	switch {
	case fwd < bwd:
		return up
	case bwd < fwd:
		return down
	}
	return min(up, down)
}

// rotLIn cyclically rotates a slots-bit mask left by h, which must lie in
// [0, slots): bit (i+h) mod slots of the result is bit i of m.
func rotLIn(m uint64, h, slots int) uint64 {
	if h == 0 {
		return m
	}
	return ((m << h) | (m >> (slots - h))) & fullMask(slots)
}

// NewState creates tables of `slots` slots for numLinks links, all free.
func NewState(numLinks, slots int) (*State, error) {
	if numLinks < 0 {
		return nil, fmt.Errorf("tdma: negative link count %d", numLinks)
	}
	if slots < 1 {
		return nil, fmt.Errorf("tdma: slot table size %d invalid", slots)
	}
	words := (slots + 63) / 64
	s := &State{numLinks: numLinks, slots: slots, words: words,
		masks: make([]uint64, numLinks*words), free: make([]int, numLinks)}
	s.Reset()
	return s, nil
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	c := *s
	c.masks = slices.Clone(s.masks)
	c.free = slices.Clone(s.free)
	return &c
}

// Reset frees every slot of every link, returning the state to its
// NewState condition without reallocating. Evaluation arenas (core.Evaluator)
// reuse one State per group across many candidate placements this way.
func (s *State) Reset() {
	for i := range s.masks {
		s.masks[i] = ^uint64(0)
	}
	// The last word of each link keeps only the bits of real slots.
	if tail := s.slots % 64; tail != 0 {
		for i := s.words - 1; i < len(s.masks); i += s.words {
			s.masks[i] = fullMask(tail)
		}
	}
	for i := range s.free {
		s.free[i] = s.slots
	}
}

// NumLinks reports how many links the state covers.
func (s *State) NumLinks() int { return s.numLinks }

// Slots reports the slot-table size T.
func (s *State) Slots() int { return s.slots }

// FreeSlots counts the free slots of a link's table. It is O(1): the count
// is maintained incrementally by Reserve/Release, which keeps the per-link
// cost query of path selection (route.LinkCost, evaluated once per arc per
// Dijkstra relaxation) independent of the slot-table size.
func (s *State) FreeSlots(link int) int {
	return s.free[link]
}

// Utilization returns the fraction of reserved slots on a link in [0,1].
func (s *State) Utilization(link int) float64 {
	return 1 - float64(s.FreeSlots(link))/float64(s.slots)
}

// bit locates slot of link in the masks: the word index and the bit.
func (s *State) bit(link, slot int) (int, uint64) {
	return link*s.words + slot>>6, uint64(1) << (slot & 63)
}

// startFree reports whether starting slot st is free along the whole path
// under contention-free alignment: link path[h] must be free at (st+h) mod T.
func (s *State) startFree(path []int, st int) bool {
	slot := st
	for _, link := range path {
		if i, b := s.bit(link, slot); s.masks[i]&b == 0 {
			return false
		}
		if slot++; slot == s.slots {
			slot = 0
		}
	}
	return true
}

// startMask intersects the free masks of the path's links with the
// contention-free shift applied: bit st of the result is set iff starting
// slot st is free along the whole path. Word-sized tables only.
func (s *State) startMask(path []int) uint64 {
	acc := fullMask(s.slots)
	h := 0
	for _, link := range path {
		acc &= rotRIn(s.masks[link], h, s.slots)
		if acc == 0 {
			break
		}
		if h++; h == s.slots {
			h = 0
		}
	}
	return acc
}

// AvailableStarts lists the starting slots (on the first link) from which a
// flit could traverse the whole path without conflict.
func (s *State) AvailableStarts(path []int) []int {
	if len(path) == 0 {
		return nil
	}
	var starts []int
	for st := 0; st < s.slots; st++ {
		if s.startFree(path, st) {
			starts = append(starts, st)
		}
	}
	return starts
}

// FindAlignedInto selects n starting slots for a reservation along path,
// spreading them as evenly as possible around the table to minimize the
// worst-case waiting gap, and writes them into buf (append semantics from
// buf[:0]; pass nil to allocate). It returns nil, false if fewer than n
// aligned starts exist; the path must be non-empty. With a word-sized
// table (slots <= 64) a probe costs one rotate-AND per link plus a
// constant number of word operations per chosen start (nearestSet), and a
// successful probe performs no heap allocation beyond buf's one-time
// growth — the evaluation paths reuse one buffer per reservation record.
// The returned starts are sorted ascending.
func (s *State) FindAlignedInto(path []int, n int, buf []int) ([]int, bool) {
	if n <= 0 || len(path) == 0 {
		return nil, false
	}
	if s.words == 1 {
		// The popcount decides feasibility before any slot is materialized —
		// on loaded fabrics most alignment probes fail, and a failed probe
		// costs one rotate-AND per link.
		acc := s.startMask(path)
		count := bits.OnesCount64(acc)
		if count < n {
			return nil, false
		}
		chosen := buf[:0]
		if count == n {
			for a := acc; a != 0; a &= a - 1 {
				chosen = append(chosen, bits.TrailingZeros64(a))
			}
			return chosen, true
		}
		// Greedy even spacing: for each ideal position i*T/n take the nearest
		// still-unused available slot (cyclically, the lower index on a tie),
		// found with two rotations instead of a scan over the free bits.
		for i := 0; i < n; i++ {
			best := nearestSet(acc, i*s.slots/n, s.slots)
			acc &^= uint64(1) << best
			chosen = append(chosen, best)
		}
		// Insertion sort: n is small and the slice is nearly sorted.
		for i := 1; i < len(chosen); i++ {
			for j := i; j > 0 && chosen[j] < chosen[j-1]; j-- {
				chosen[j], chosen[j-1] = chosen[j-1], chosen[j]
			}
		}
		return chosen, true
	}
	avail := s.AvailableStarts(path)
	if len(avail) < n {
		return nil, false
	}
	if len(avail) == n {
		return append(buf[:0], avail...), true
	}
	// Large-table fallback (slots > 64): correctness over allocation
	// discipline.
	chosen := buf[:0]
	{
		used := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			target := i * s.slots / n
			best, bestDist := -1, s.slots+1
			for _, a := range avail {
				if used[a] {
					continue
				}
				d := cyclicDist(a, target, s.slots)
				if d < bestDist || (d == bestDist && a < best) {
					best, bestDist = a, d
				}
			}
			used[best] = true
			chosen = append(chosen, best)
		}
	}
	sort.Ints(chosen)
	return chosen, true
}

// Reserve claims the aligned slots along path. The starts must be free (as
// returned by FindAlignedInto); otherwise an error is returned and the state
// is left unchanged. The owner token is validated (it must be
// non-negative) but not stored: a State records only which slots are free.
func (s *State) Reserve(owner int32, path []int, starts []int) error {
	if owner < 0 {
		return fmt.Errorf("tdma: owner token %d must be non-negative", owner)
	}
	if len(starts) == 0 {
		return nil
	}
	// A word-sized table answers every start's freedom with one startMask;
	// the checks still run in start order, so the first failing start is
	// reported.
	var avail uint64
	if s.words == 1 {
		avail = s.startMask(path)
	}
	for _, st := range starts {
		if st < 0 || st >= s.slots {
			return fmt.Errorf("tdma: start slot %d out of range [0,%d)", st, s.slots)
		}
		var free bool
		if s.words == 1 {
			free = avail>>st&1 != 0
		} else {
			free = s.startFree(path, st)
		}
		if !free {
			return fmt.Errorf("tdma: start slot %d not free along path", st)
		}
	}
	if s.words == 1 {
		// Hop h holds the start bits rotated left by h. Only bits still free
		// are cleared and counted, so a link the path visits twice is never
		// charged twice for one slot. At T = 64 this word form takes little
		// over half the time of the per-bit walk below
		// (BenchmarkStateReserveRelease, bitwalk runs).
		var startBits uint64
		for _, st := range starts {
			startBits |= uint64(1) << st
		}
		h := 0
		for _, link := range path {
			c := rotLIn(startBits, h, s.slots) & s.masks[link]
			s.masks[link] &^= c
			s.free[link] -= bits.OnesCount64(c)
			if h++; h == s.slots {
				h = 0
			}
		}
		return nil
	}
	for _, st := range starts {
		slot := st
		for _, link := range path {
			if i, b := s.bit(link, slot); s.masks[i]&b != 0 {
				s.masks[i] &^= b
				s.free[link]--
			}
			if slot++; slot == s.slots {
				slot = 0
			}
		}
	}
	return nil
}

// Release frees the aligned slots of a reservation along path. Only slots
// that are currently reserved are freed and counted; slots already free and
// out-of-range starts are left untouched. The State does not know who holds
// a slot, so the caller must release only a live reservation: its exact
// path and starts, as passed to a Reserve that succeeded. The owner token is
// ignored.
func (s *State) Release(owner int32, path []int, starts []int) {
	if s.words == 1 {
		var startBits uint64
		for _, st := range starts {
			if st >= 0 && st < s.slots {
				startBits |= uint64(1) << st
			}
		}
		if startBits == 0 {
			return
		}
		h := 0
		for _, link := range path {
			c := rotLIn(startBits, h, s.slots) &^ s.masks[link]
			s.masks[link] |= c
			s.free[link] += bits.OnesCount64(c)
			if h++; h == s.slots {
				h = 0
			}
		}
		return
	}
	for _, st := range starts {
		if st < 0 || st >= s.slots {
			continue
		}
		slot := st
		for _, link := range path {
			if i, b := s.bit(link, slot); s.masks[i]&b == 0 {
				s.masks[i] |= b
				s.free[link]++
			}
			if slot++; slot == s.slots {
				slot = 0
			}
		}
	}
}

// MaxGap returns the worst-case number of whole slots a flit waits at the NI
// for the next reserved start, i.e. the largest cyclic gap between
// consecutive reserved starts minus one. A single reserved slot yields T-1;
// an empty reservation yields T (nothing is ever sent). Starts sorted
// ascending, the form FindAlignedInto returns, are read in place; only
// unsorted starts are copied and sorted first.
func MaxGap(starts []int, slots int) int {
	if len(starts) == 0 {
		return slots
	}
	if !slices.IsSorted(starts) {
		starts = slices.Clone(starts)
		slices.Sort(starts)
	}
	max := 0
	for i := range starts {
		next := starts[(i+1)%len(starts)]
		gap := next - starts[i]
		if gap <= 0 {
			gap += slots
		}
		if gap-1 > max {
			max = gap - 1 // slots of waiting strictly between consecutive starts
		}
	}
	return max
}

// WorstCaseLatencySlots bounds a GT flow's packet latency in slot periods:
// the worst wait for the next reserved start plus one slot per hop of the
// path plus the slot in which the flit is serialized.
func WorstCaseLatencySlots(starts []int, pathLen, slots int) int {
	return MaxGap(starts, slots) + pathLen + 1
}

// MinFree returns the smallest free-slot count over all links — the
// saturation the worst link has reached. It scans the incrementally
// maintained counters, so sessions derive the max-utilization statistic
// without walking slot tables.
func (s *State) MinFree() int {
	min := s.slots
	for _, f := range s.free {
		if f < min {
			min = f
		}
	}
	return min
}

// SlotsNeeded returns how many slots a flow of bandwidthMBs requires when
// each slot grants slotBandwidthMBs.
func SlotsNeeded(bandwidthMBs, slotBandwidthMBs float64) int {
	if bandwidthMBs <= 0 || slotBandwidthMBs <= 0 {
		return 0
	}
	n := int(bandwidthMBs / slotBandwidthMBs)
	if float64(n)*slotBandwidthMBs < bandwidthMBs-1e-9 {
		n++
	}
	return n
}

func cyclicDist(a, b, m int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if m-d < d {
		d = m - d
	}
	return d
}
