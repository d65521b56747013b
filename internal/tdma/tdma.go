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
	// scratch holds two start sets on tables of several words — the
	// aligned starts of a path and a pick from them — allocated on first
	// use and never shared with a clone.
	scratch []uint64
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
	c.scratch = nil
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

// Slots reports the slot-table size T.
func (s *State) Slots() int { return s.slots }

// FreeSlots counts the free slots of a link's table. It is O(1): the count
// is maintained incrementally by Reserve/Release, which keeps the per-link
// cost query of path selection (route.LinkCost, evaluated once per arc per
// Dijkstra relaxation) independent of the slot-table size.
func (s *State) FreeSlots(link int) int {
	return s.free[link]
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

// Words returns the number of 64-bit words of a start set on a table of
// `slots` slots, ⌈slots/64⌉. A start set is the form a reservation's starts
// take in ReserveAligned, ReserveStarts and Release: bit s of word s/64 is
// set iff the reservation starts at slot s, so its size is fixed by T.
func Words(slots int) int { return (slots + 63) / 64 }

// AppendStarts appends the starts of the start set to buf in ascending
// order.
func AppendStarts(buf []int, starts []uint64) []int {
	for w, x := range starts {
		for ; x != 0; x &= x - 1 {
			buf = append(buf, w<<6+bits.TrailingZeros64(x))
		}
	}
	return buf
}

// StartsInto writes the start list of a table of slots slots into set
// (Words(slots) words), the inverse of AppendStarts. A start out of range,
// or listed twice and so claimed twice, is an error naming the first such
// start in list order.
func StartsInto(set []uint64, starts []int, slots int) error {
	clear(set)
	for _, st := range starts {
		if st < 0 || st >= slots {
			return errOutOfRange(st, slots)
		}
		w, b := st>>6, uint64(1)<<(st&63)
		if set[w]&b != 0 {
			return errNotFree(st)
		}
		set[w] |= b
	}
	return nil
}

// scratchSet returns the state's scratch start set i (0 or 1), cleared.
// The scratch is allocated on first use and never shared with a clone.
func (s *State) scratchSet(i int) []uint64 {
	if len(s.scratch) < 2*s.words {
		s.scratch = make([]uint64, 2*s.words)
	}
	set := s.scratch[i*s.words : (i+1)*s.words]
	clear(set)
	return set
}

// alignedWords sets in acc, a cleared set of s.words words, the starts free
// along the whole path and returns their count: the per-start walk that
// stands in for startMask on tables of several words.
func (s *State) alignedWords(path []int, acc []uint64) int {
	count := 0
	for st := 0; st < s.slots; st++ {
		if s.startFree(path, st) {
			acc[st>>6] |= uint64(1) << (st & 63)
			count++
		}
	}
	return count
}

// FindAlignedInto selects n starting slots for a reservation along path,
// spreading them as evenly as possible around the table to minimize the
// worst-case waiting gap, and writes them into buf (append semantics from
// buf[:0]; pass nil to allocate). It returns nil, false if fewer than n
// aligned starts exist; the path must be non-empty. It picks the start set
// ReserveAligned would claim for n and lists it: with a word-sized table
// (slots <= 64) a probe costs one rotate-AND per link plus a constant
// number of word operations per chosen start (nearestSet); larger tables
// collect the aligned starts into a scratch set with the per-start walk and
// pick from it a word at a time (nearestSetWords). A successful probe
// performs no heap allocation beyond buf's one-time growth and the scratch
// set's first use. The returned starts are sorted ascending.
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
		chosen := [1]uint64{pickAligned(acc, count, n, s.slots)}
		return AppendStarts(buf[:0], chosen[:]), true
	}
	acc, chosen := s.scratchSet(0), s.scratchSet(1)
	count := s.alignedWords(path, acc)
	if count < n {
		return nil, false
	}
	pickWords(acc, chosen, count, n, s.slots)
	return AppendStarts(buf[:0], chosen), true
}

// ReserveAligned is the reservation primitive's one claim: it picks n
// starts along path as FindAlignedInto would, and while their worst-case
// latency (WorstCaseLatencySlots) exceeds latBudget it retries with one
// start more, up to every aligned start of the path; a negative latBudget
// accepts the first pick. The accepted starts are reserved, written into
// the start set starts (Words(Slots()) words, overwritten) and their count
// is returned. When no count fits, the state is unchanged, 0 is returned
// and starts holds no meaning. The path's aligned starts are collected
// once for every count tried, and the pick, the latency check and the
// claim all read the set, so a claim performs no heap allocation beyond
// the scratch set's first use on a table of several words.
func (s *State) ReserveAligned(path []int, n, latBudget int, starts []uint64) int {
	if n <= 0 || len(path) == 0 {
		return 0
	}
	if s.words == 1 {
		acc := s.startMask(path)
		count := bits.OnesCount64(acc)
		for ; n <= count; n++ {
			starts[0] = pickAligned(acc, count, n, s.slots)
			if latBudget >= 0 && maxGapSet(starts[:1], s.slots)+len(path)+1 > latBudget {
				continue // spread more starts to shrink the gap
			}
			// Every picked start is free along the whole path iff its bits
			// are a subset of the aligned-start mask.
			if starts[0]&^acc != 0 {
				panic("tdma: internal: picked start is not aligned-free")
			}
			s.claimBits(path, starts[0])
			return n
		}
		return 0
	}
	acc := s.scratchSet(0)
	count := s.alignedWords(path, acc)
	for ; n <= count; n++ {
		pickWords(acc, starts, count, n, s.slots)
		if latBudget >= 0 && maxGapSet(starts, s.slots)+len(path)+1 > latBudget {
			continue
		}
		s.claimWords(path, starts)
		return n
	}
	return 0
}

// pickAligned returns, as a bitset, the n starts of the aligned-start mask
// acc (which holds count >= n starts) that FindAlignedInto selects: for
// each ideal position i*T/n the nearest still-unused start (cyclically,
// the lower index on a tie), found with two rotations instead of a scan
// over the free bits.
func pickAligned(acc uint64, count, n, slots int) uint64 {
	if count == n {
		return acc
	}
	var chosen uint64
	for i := 0; i < n; i++ {
		best := uint64(1) << nearestSet(acc, i*slots/n, slots)
		acc &^= best
		chosen |= best
	}
	return chosen
}

// pickWords is pickAligned on a table of several words: it writes into
// chosen the n starts of the aligned-start set acc (which holds count >= n
// starts) picked for the ideal positions i*T/n, each the start of acc not
// chosen yet that lies cyclically nearest.
func pickWords(acc, chosen []uint64, count, n, slots int) {
	if count == n {
		copy(chosen, acc)
		return
	}
	clear(chosen)
	for i := 0; i < n; i++ {
		best := nearestSetWords(acc, chosen, i*slots/n, slots)
		chosen[best>>6] |= uint64(1) << (best & 63)
	}
}

// nearestSetWords is nearestSet on the starts of acc not in used, a set
// with at least one such start held in several words: the one cyclically
// nearest to target, the lower index of two at equal distance.
func nearestSetWords(acc, used []uint64, target, slots int) int {
	up, down := nextSetWords(acc, used, target), prevSetWords(acc, used, target)
	fwd, bwd := up-target, target-down
	if fwd < 0 {
		fwd += slots
	}
	if bwd < 0 {
		bwd += slots
	}
	switch {
	case fwd < bwd:
		return up
	case bwd < fwd:
		return down
	}
	return min(up, down)
}

// nextSetWords returns the first start of acc not in used at or after
// from, wrapping past the last word to bit 0.
func nextSetWords(acc, used []uint64, from int) int {
	w := from >> 6
	x := (acc[w] &^ used[w]) &^ (uint64(1)<<(from&63) - 1)
	for x == 0 {
		if w++; w == len(acc) {
			w = 0
		}
		x = acc[w] &^ used[w]
	}
	return w<<6 + bits.TrailingZeros64(x)
}

// prevSetWords returns the last start of acc not in used at or before
// from, wrapping below bit 0 to the last word.
func prevSetWords(acc, used []uint64, from int) int {
	w := from >> 6
	x := (acc[w] &^ used[w]) & (uint64(2)<<(from&63) - 1)
	for x == 0 {
		if w == 0 {
			w = len(acc)
		}
		w--
		x = acc[w] &^ used[w]
	}
	return w<<6 + 63 - bits.LeadingZeros64(x)
}

// maxGapSet is MaxGap of the start set of a table of `slots` slots.
func maxGapSet(starts []uint64, slots int) int {
	first, prev, max := -1, 0, 0
	for w, x := range starts {
		for ; x != 0; x &= x - 1 {
			st := w<<6 + bits.TrailingZeros64(x)
			if first < 0 {
				first = st
			} else if gap := st - prev - 1; gap > max {
				max = gap
			}
			prev = st
		}
	}
	if first < 0 {
		return slots
	}
	if gap := first + slots - prev - 1; gap > max {
		max = gap
	}
	return max
}

// Reserve claims the aligned slots along path of the starts listed. The
// starts must be free (as returned by FindAlignedInto); otherwise an error
// naming the first refused start in the list's order is returned and the
// state is left unchanged. The owner token is validated (it must be
// non-negative) but not stored: a State records only which slots are free.
// It checks the list and claims its start set as ReserveStarts does.
func (s *State) Reserve(owner int32, path []int, starts []int) error {
	if owner < 0 {
		return fmt.Errorf("tdma: owner token %d must be non-negative", owner)
	}
	if len(starts) == 0 {
		return nil
	}
	// A word-sized table answers every start's freedom with one startMask.
	var word [1]uint64
	set, avail := word[:], uint64(0)
	if s.words == 1 {
		avail = s.startMask(path)
	} else {
		set = s.scratchSet(1)
	}
	for _, st := range starts {
		if st < 0 || st >= s.slots {
			return errOutOfRange(st, s.slots)
		}
		if s.words == 1 && avail>>st&1 == 0 || s.words > 1 && !s.startFree(path, st) {
			return errNotFree(st)
		}
		set[st>>6] |= uint64(1) << (st & 63)
	}
	s.claim(path, set)
	return nil
}

// ReserveStarts claims the aligned slots along path of the start set
// starts (Words(Slots()) words). Every start must be in range and free;
// otherwise an error naming the lowest refused start is returned and the
// state is left unchanged.
func (s *State) ReserveStarts(path []int, starts []uint64) error {
	if s.words == 1 {
		// The aligned-start mask holds no bit past the last slot, so the
		// lowest bit outside it is the lowest refused start.
		if bad := starts[0] &^ s.startMask(path); bad != 0 {
			st := bits.TrailingZeros64(bad)
			if st >= s.slots {
				return errOutOfRange(st, s.slots)
			}
			return errNotFree(st)
		}
		s.claimBits(path, starts[0])
		return nil
	}
	for w, x := range starts {
		for ; x != 0; x &= x - 1 {
			st := w<<6 + bits.TrailingZeros64(x)
			if st >= s.slots {
				return errOutOfRange(st, s.slots)
			}
			if !s.startFree(path, st) {
				return errNotFree(st)
			}
		}
	}
	s.claimWords(path, starts)
	return nil
}

func errOutOfRange(st, slots int) error {
	return fmt.Errorf("tdma: start slot %d out of range [0,%d)", st, slots)
}

func errNotFree(st int) error { return fmt.Errorf("tdma: start slot %d not free along path", st) }

// claim reserves the checked start set along path.
func (s *State) claim(path []int, starts []uint64) {
	if s.words == 1 {
		// At T = 64 the word form (claimBits) takes little over half the
		// time of the per-bit walk (BenchmarkStateReserveRelease, bitwalk
		// runs).
		s.claimBits(path, starts[0])
		return
	}
	s.claimWords(path, starts)
}

// claimBits reserves the starts startBits along path on a word-sized
// table: hop h clears the still-free bits of the start bits rotated left
// by h and subtracts their popcount, so a link the path visits twice is
// never charged twice for one slot.
func (s *State) claimBits(path []int, startBits uint64) {
	h := 0
	for _, link := range path {
		c := rotLIn(startBits, h, s.slots) & s.masks[link]
		s.masks[link] &^= c
		s.free[link] -= bits.OnesCount64(c)
		if h++; h == s.slots {
			h = 0
		}
	}
}

// claimWords reserves the start set along path on a table of several
// words, walking each start's aligned slots one bit at a time.
func (s *State) claimWords(path []int, starts []uint64) {
	for w, x := range starts {
		for ; x != 0; x &= x - 1 {
			slot := w<<6 + bits.TrailingZeros64(x)
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
	}
}

// Release frees the aligned slots along path of the start set starts
// (Words(Slots()) words). Only slots that are currently reserved are freed
// and counted; slots already free and set bits past the last slot are left
// untouched. The State does not know who holds a slot, so the caller must
// release only a live reservation: its exact path and starts, as claimed by
// a ReserveAligned, ReserveStarts or Reserve that succeeded.
func (s *State) Release(path []int, starts []uint64) {
	if s.words == 1 {
		startBits := starts[0] & fullMask(s.slots)
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
	for w, x := range starts {
		for ; x != 0; x &= x - 1 {
			slot := w<<6 + bits.TrailingZeros64(x)
			if slot >= s.slots {
				return
			}
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
