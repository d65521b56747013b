package tdma

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func mustState(t *testing.T, links, slots int) *State {
	t.Helper()
	s, err := NewState(links, slots)
	if err != nil {
		t.Fatalf("NewState(%d,%d): %v", links, slots, err)
	}
	return s
}

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(-1, 8); err == nil {
		t.Error("negative links accepted")
	}
	if _, err := NewState(4, 0); err == nil {
		t.Error("zero slots accepted")
	}
	s := mustState(t, 3, 8)
	if s.NumLinks() != 3 || s.Slots() != 8 {
		t.Errorf("dims = %d,%d", s.NumLinks(), s.Slots())
	}
	for l := 0; l < 3; l++ {
		if s.FreeSlots(l) != 8 {
			t.Errorf("link %d not fully free", l)
		}
		if s.Utilization(l) != 0 {
			t.Errorf("utilization = %v", s.Utilization(l))
		}
	}
}

// isFree reads the free bit of (link, slot) straight from the masks.
func isFree(s *State, link, slot int) bool {
	i, b := s.bit(link, slot)
	return s.masks[i]&b != 0
}

// reserveBoth reserves on the state and on the reference, failing the test
// if either refuses, and then compares them.
func reserveBoth(t *testing.T, s *State, ref *refTables, owner int32, path, starts []int) {
	t.Helper()
	if err := s.Reserve(owner, path, starts); err != nil {
		t.Fatalf("Reserve(%v, %v): %v", path, starts, err)
	}
	if err := ref.reserve(owner, path, starts); err != nil {
		t.Fatalf("reference reserve(%v, %v): %v", path, starts, err)
	}
	checkAgainstRef(t, s, ref, "after Reserve")
}

func TestReserveAndAlignment(t *testing.T) {
	s := mustState(t, 3, 8)
	ref := newRefTables(3, 8)
	reserveBoth(t, s, ref, 7, []int{0, 1, 2}, []int{2})
	// Contention-free alignment: link 0 slot 2, link 1 slot 3, link 2 slot 4.
	if isFree(s, 0, 2) || isFree(s, 1, 3) || isFree(s, 2, 4) {
		t.Error("aligned slots not reserved")
	}
	if !isFree(s, 0, 3) || !isFree(s, 1, 2) {
		t.Error("unrelated slots disturbed")
	}
	if s.FreeSlots(0) != 7 {
		t.Errorf("link 0 free = %d, want 7", s.FreeSlots(0))
	}
}

func TestReserveWrapAround(t *testing.T) {
	s := mustState(t, 2, 4)
	ref := newRefTables(2, 4)
	reserveBoth(t, s, ref, 1, []int{0, 1}, []int{3})
	// Slot 3 on link 0 wraps to slot 0 on link 1.
	if isFree(s, 1, 0) {
		t.Error("wrap-around slot not reserved")
	}
}

func TestReserveConflicts(t *testing.T) {
	s := mustState(t, 2, 4)
	if err := s.Reserve(1, []int{0, 1}, []int{0}); err != nil {
		t.Fatal(err)
	}
	// Same start on overlapping path must fail.
	if err := s.Reserve(2, []int{0}, []int{0}); err == nil {
		t.Error("conflicting reservation accepted")
	}
	// Flow 1 holds link 0 slot 0 and, via alignment, link 1 slot 1. A new
	// single-link reservation on link 1 starting at slot 1 must collide.
	if err := s.Reserve(2, []int{1}, []int{1}); err == nil {
		t.Error("second-hop collision accepted")
	}
	// Invalid owner and out-of-range starts.
	if err := s.Reserve(-1, []int{0}, []int{0}); err == nil {
		t.Error("negative owner accepted")
	}
	if err := s.Reserve(3, []int{0}, []int{9}); err == nil {
		t.Error("out-of-range start accepted")
	}
}

// TestReleaseOnlyOwn: Release frees exactly the slots of the live
// reservation it is given, and is a no-op on starts that are already free
// or out of range.
func TestReleaseOnlyOwn(t *testing.T) {
	s := mustState(t, 2, 4)
	ref := newRefTables(2, 4)
	reserveBoth(t, s, ref, 1, []int{0}, []int{0})
	reserveBoth(t, s, ref, 2, []int{0, 1}, []int{1, 3})
	s.Release(1, []int{0}, []int{0})
	ref.release(1, []int{0}, []int{0})
	checkAgainstRef(t, s, ref, "after releasing a live reservation")
	if !isFree(s, 0, 0) || isFree(s, 0, 1) || s.FreeSlots(0) != 2 {
		t.Errorf("Release freed the wrong slots: link 0 mask %#x, free %d", s.masks[0], s.FreeSlots(0))
	}
	// Releasing it again, and releasing junk starts, changes nothing.
	s.Release(1, []int{0}, []int{0})
	s.Release(2, []int{0, 1}, []int{-3, 99})
	checkAgainstRef(t, s, ref, "after releasing free and out-of-range starts")
	s.Release(2, []int{0, 1}, []int{1, 3})
	ref.release(2, []int{0, 1}, []int{1, 3})
	checkAgainstRef(t, s, ref, "after releasing everything")

	// A path that visits link 0 twice (hops 0 and 2 land on the same slot
	// of a 2-slot table) takes and returns that slot once.
	s, ref = mustState(t, 2, 2), newRefTables(2, 2)
	reserveBoth(t, s, ref, 3, []int{0, 1, 0}, []int{0})
	if s.FreeSlots(0) != 1 || s.FreeSlots(1) != 1 {
		t.Errorf("repeated link: free counts %d, %d, want 1, 1", s.FreeSlots(0), s.FreeSlots(1))
	}
	s.Release(3, []int{0, 1, 0}, []int{0})
	ref.release(3, []int{0, 1, 0}, []int{0})
	checkAgainstRef(t, s, ref, "after releasing a path with a repeated link")
}

func TestAvailableStarts(t *testing.T) {
	s := mustState(t, 2, 4)
	if got := s.AvailableStarts(nil); got != nil {
		t.Errorf("empty path starts = %v", got)
	}
	if got := s.AvailableStarts([]int{0, 1}); len(got) != 4 {
		t.Errorf("fresh table starts = %v, want all 4", got)
	}
	if err := s.Reserve(5, []int{0, 1}, []int{1}); err != nil {
		t.Fatal(err)
	}
	got := s.AvailableStarts([]int{0, 1})
	if !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Errorf("starts after reservation = %v, want [0 2 3]", got)
	}
}

func TestFindAlignedSpacing(t *testing.T) {
	s := mustState(t, 1, 8)
	starts, ok := s.FindAlignedInto([]int{0}, 2, nil)
	if !ok || len(starts) != 2 {
		t.Fatalf("FindAlignedInto = %v,%v", starts, ok)
	}
	// Two slots on an empty table of 8 should be spread ~4 apart.
	if MaxGap(starts, 8) > 4 {
		t.Errorf("starts %v poorly spread: max gap %d", starts, MaxGap(starts, 8))
	}
}

func TestFindAlignedExactAndFail(t *testing.T) {
	s := mustState(t, 1, 4)
	if err := s.Reserve(1, []int{0}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	starts, ok := s.FindAlignedInto([]int{0}, 2, nil)
	if !ok || !reflect.DeepEqual(starts, []int{2, 3}) {
		t.Errorf("exact-fit FindAlignedInto = %v,%v", starts, ok)
	}
	if _, ok := s.FindAlignedInto([]int{0}, 3, nil); ok {
		t.Error("FindAlignedInto found more slots than free")
	}
	if _, ok := s.FindAlignedInto([]int{0}, 0, nil); ok {
		t.Error("n=0 should fail")
	}
	if _, ok := s.FindAlignedInto(nil, 1, nil); ok {
		t.Error("empty path should fail")
	}
}

// nearestScan and spreadScan are the even-spacing pick FindAlignedInto
// made before nearestSet: for each ideal position scan every still-unused
// free bit ascending and keep the strictly nearest. They are the oracle the
// word arithmetic is checked against.
func nearestScan(mask uint64, target, slots int) int {
	best, bestDist := -1, slots+1
	for a := mask; a != 0; a &= a - 1 {
		cand := bits.TrailingZeros64(a)
		d := cyclicDist(cand, target, slots)
		if d < bestDist || (d == bestDist && cand < best) {
			best, bestDist = cand, d
		}
	}
	return best
}

func spreadScan(acc uint64, n, slots int) []int {
	var chosen []int
	for i := 0; i < n; i++ {
		best := nearestScan(acc, i*slots/n, slots)
		acc &^= uint64(1) << best
		chosen = append(chosen, best)
	}
	slices.Sort(chosen)
	return chosen
}

// checkSpread compares FindAlignedInto on a one-link table whose free mask is
// acc against spreadScan for every feasible n.
func checkSpread(t *testing.T, s *State, acc uint64) {
	t.Helper()
	s.masks[0] = acc
	for n := 1; n <= bits.OnesCount64(acc); n++ {
		got, ok := s.FindAlignedInto([]int{0}, n, nil)
		if !ok {
			t.Fatalf("slots %d mask %#x n %d: FindAlignedInto failed", s.slots, acc, n)
		}
		if want := spreadScan(acc, n, s.slots); !slices.Equal(got, want) {
			t.Fatalf("slots %d mask %#x n %d: FindAlignedInto = %v, scan = %v", s.slots, acc, n, got, want)
		}
	}
}

// TestNearestSetMatchesScan: the rotation-based pick chooses exactly what the
// per-bit scan chose — exhaustively over every mask and n for tables up to
// 14 slots, and on random masks up to a full word.
func TestNearestSetMatchesScan(t *testing.T) {
	for slots := 1; slots <= 14; slots++ {
		s := mustState(t, 1, slots)
		for acc := uint64(1); acc <= fullMask(slots); acc++ {
			for target := 0; target < slots; target++ {
				if got, want := nearestSet(acc, target, slots), nearestScan(acc, target, slots); got != want {
					t.Fatalf("slots %d mask %#x: nearestSet(%d) = %d, scan = %d", slots, acc, target, got, want)
				}
			}
			checkSpread(t, s, acc)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		slots := 15 + rng.Intn(50)
		acc := rng.Uint64() & fullMask(slots)
		if acc == 0 {
			continue
		}
		checkSpread(t, mustState(t, 1, slots), acc)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := mustState(t, 1, 4)
	if err := s.Reserve(1, []int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Reserve(2, []int{0}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if !isFree(s, 0, 1) || s.FreeSlots(0) != 3 {
		t.Error("Clone shares backing storage")
	}
	if isFree(c, 0, 0) || c.FreeSlots(0) != 2 {
		t.Error("Clone lost existing reservation")
	}
}

func TestMaxGap(t *testing.T) {
	cases := []struct {
		starts []int
		slots  int
		want   int
	}{
		{nil, 8, 8},
		{[]int{3}, 8, 7},
		{[]int{0, 4}, 8, 3},
		{[]int{0, 1, 2, 3}, 4, 0},
		{[]int{0, 2}, 8, 5},
		{[]int{7, 0}, 8, 6},
	}
	for _, tc := range cases {
		if got := MaxGap(tc.starts, tc.slots); got != tc.want {
			t.Errorf("MaxGap(%v,%d) = %d, want %d", tc.starts, tc.slots, got, tc.want)
		}
	}
}

// TestMaxGapInPlace: sorted starts are read in place without allocating,
// and unsorted ones are sorted in a copy, leaving the caller's slice as it
// was.
func TestMaxGapInPlace(t *testing.T) {
	sorted := []int{1, 9, 17, 40}
	if n := testing.AllocsPerRun(100, func() { MaxGap(sorted, 64) }); n != 0 {
		t.Errorf("MaxGap on sorted starts: %.0f allocs/op, want 0", n)
	}
	unsorted := []int{40, 1, 17, 9}
	if got := MaxGap(unsorted, 64); got != 24 {
		t.Errorf("MaxGap(%v,64) = %d, want 24", unsorted, got)
	}
	if want := []int{40, 1, 17, 9}; !slices.Equal(unsorted, want) {
		t.Errorf("MaxGap reordered its input to %v", unsorted)
	}
}

func TestWorstCaseLatencySlots(t *testing.T) {
	// One slot of 8, path of 3 hops: wait up to 7, plus 3 hops, plus the
	// serialization slot = 11.
	if got := WorstCaseLatencySlots([]int{0}, 3, 8); got != 11 {
		t.Errorf("latency = %d, want 11", got)
	}
	// Fully reserved table: no waiting.
	if got := WorstCaseLatencySlots([]int{0, 1, 2, 3}, 2, 4); got != 3 {
		t.Errorf("latency = %d, want 3", got)
	}
}

func TestSlotsNeeded(t *testing.T) {
	cases := []struct {
		bw, slotBW float64
		want       int
	}{
		{100, 31.25, 4}, // 3.2 slots -> 4
		{31.25, 31.25, 1},
		{62.5, 31.25, 2},
		{0, 31.25, 0},
		{-5, 31.25, 0},
		{10, 0, 0},
		{1, 31.25, 1},
	}
	for _, tc := range cases {
		if got := SlotsNeeded(tc.bw, tc.slotBW); got != tc.want {
			t.Errorf("SlotsNeeded(%v,%v) = %d, want %d", tc.bw, tc.slotBW, got, tc.want)
		}
	}
}

// Property: Reserve then Release restores the exact prior state, and
// reservations never overlap.
func TestReserveReleaseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		links := 2 + rng.Intn(6)
		slots := 4 + rng.Intn(28)
		s, err := NewState(links, slots)
		if err != nil {
			return false
		}
		ref := newRefTables(links, slots)
		type res struct {
			owner  int32
			path   []int
			starts []int
		}
		var made []res
		for owner := int32(0); owner < 6; owner++ {
			plen := 1 + rng.Intn(links)
			path := rng.Perm(links)[:plen]
			n := 1 + rng.Intn(3)
			starts, ok := s.FindAlignedInto(path, n, nil)
			if !ok {
				continue
			}
			if err := s.Reserve(owner, path, starts); err != nil {
				return false // FindAlignedInto result must always be reservable
			}
			if ref.reserve(owner, path, starts) != nil {
				return false
			}
			made = append(made, res{owner, path, starts})
		}
		// Every reservation's slots are reserved, and nothing else is.
		if !matchesRef(s, ref) {
			return false
		}
		// Release everything; state must be fully free.
		for _, r := range made {
			s.Release(r.owner, r.path, r.starts)
			ref.release(r.owner, r.path, r.starts)
			if !matchesRef(s, ref) {
				return false
			}
		}
		for l := 0; l < links; l++ {
			if s.FreeSlots(l) != slots {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FindAlignedInto returns sorted, distinct, in-range starts and the
// count requested.
func TestFindAlignedShapeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slots := 4 + rng.Intn(60)
		s, err := NewState(3, slots)
		if err != nil {
			return false
		}
		// Pre-occupy random slots.
		for i := 0; i < rng.Intn(slots); i++ {
			st := rng.Intn(slots)
			_ = s.Reserve(99, []int{rng.Intn(3)}, []int{st}) // may fail; fine
		}
		path := []int{0, 1, 2}
		n := 1 + rng.Intn(4)
		starts, ok := s.FindAlignedInto(path, n, nil)
		if !ok {
			return len(s.AvailableStarts(path)) < n
		}
		if len(starts) != n {
			return false
		}
		for i, st := range starts {
			if st < 0 || st >= slots {
				return false
			}
			if i > 0 && starts[i-1] >= st {
				return false
			}
			if !s.startFree(path, st) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// countFree is the O(T) reference implementation of FreeSlots, a count of
// the link's free bits; the incremental counter must agree with it after
// any Reserve/Release/Reset sequence.
func countFree(s *State, link int) int {
	n := 0
	for slot := 0; slot < s.Slots(); slot++ {
		if isFree(s, link, slot) {
			n++
		}
	}
	return n
}

func TestFreeSlotsMatchesTableScan(t *testing.T) {
	s, err := NewState(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefTables(4, 8)
	path := []int{0, 1, 2}
	starts, ok := s.FindAlignedInto(path, 3, nil)
	if !ok {
		t.Fatal("FindAlignedInto failed on empty state")
	}
	reserveBoth(t, s, ref, 7, path, starts)
	path2 := []int{1, 3}
	starts2, ok := s.FindAlignedInto(path2, 2, nil)
	if !ok {
		t.Fatal("second FindAlignedInto failed")
	}
	reserveBoth(t, s, ref, 8, path2, starts2)
	for l := 0; l < s.NumLinks(); l++ {
		if got, want := s.FreeSlots(l), countFree(s, l); got != want {
			t.Errorf("after reserve: FreeSlots(%d) = %d, table scan = %d", l, got, want)
		}
	}
	s.Release(7, path, starts)
	ref.release(7, path, starts)
	checkAgainstRef(t, s, ref, "after Release")
	for l := 0; l < s.NumLinks(); l++ {
		if got, want := s.FreeSlots(l), countFree(s, l); got != want {
			t.Errorf("after release: FreeSlots(%d) = %d, table scan = %d", l, got, want)
		}
	}
}

func TestResetRestoresNewState(t *testing.T) {
	s, err := NewState(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	path := []int{0, 2}
	starts, ok := s.FindAlignedInto(path, 4, nil)
	if !ok {
		t.Fatal("FindAlignedInto failed")
	}
	if err := s.Reserve(1, path, starts); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	checkAgainstRef(t, s, newRefTables(3, 6), "after Reset")
	// A table wider than a word keeps its last word's unused bits clear.
	big := mustState(t, 2, 100)
	if err := big.Reserve(1, []int{0, 1}, []int{5, 70, 99}); err != nil {
		t.Fatal(err)
	}
	big.Reset()
	fresh := mustState(t, 2, 100)
	if !slices.Equal(big.masks, fresh.masks) || !slices.Equal(big.free, fresh.free) {
		t.Errorf("T=100 Reset: masks %#x free %v, NewState masks %#x free %v", big.masks, big.free, fresh.masks, fresh.free)
	}
	checkAgainstRef(t, big, newRefTables(2, 100), "T=100 after Reset")
}

func TestCloneCopiesFreeCounts(t *testing.T) {
	s, _ := NewState(2, 4)
	path := []int{0}
	starts, _ := s.FindAlignedInto(path, 2, nil)
	if err := s.Reserve(3, path, starts); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if c.FreeSlots(0) != s.FreeSlots(0) {
		t.Fatalf("clone FreeSlots(0) = %d, want %d", c.FreeSlots(0), s.FreeSlots(0))
	}
	c.Release(3, path, starts)
	if c.FreeSlots(0) != 4 {
		t.Errorf("clone release: FreeSlots = %d, want 4", c.FreeSlots(0))
	}
	if s.FreeSlots(0) != 2 {
		t.Errorf("original mutated by clone release: FreeSlots = %d, want 2", s.FreeSlots(0))
	}
}

// refTables is the per-slot reference the bitset State is checked against:
// plain owner tables indexed with (st+h) mod T on every hop, holding refFree
// or the token of the reservation that holds the slot.
type refTables struct {
	slots  int
	tables []int32
}

// refFree marks a slot no reservation holds.
const refFree int32 = -1

func newRefTables(links, slots int) *refTables {
	r := &refTables{slots: slots, tables: make([]int32, links*slots)}
	r.reset()
	return r
}

func (r *refTables) reset() {
	for i := range r.tables {
		r.tables[i] = refFree
	}
}

func (r *refTables) clone() *refTables {
	return &refTables{slots: r.slots, tables: slices.Clone(r.tables)}
}

func (r *refTables) startFree(path []int, st int) bool {
	for h, link := range path {
		if r.tables[link*r.slots+(st+h)%r.slots] != refFree {
			return false
		}
	}
	return true
}

// starts lists the free (free == true) or the taken starts of path.
func (r *refTables) starts(path []int, free bool) []int {
	var out []int
	for st := 0; st < r.slots; st++ {
		if r.startFree(path, st) == free {
			out = append(out, st)
		}
	}
	return out
}

func (r *refTables) startMask(path []int) uint64 {
	var m uint64
	for _, st := range r.starts(path, true) {
		m |= uint64(1) << st
	}
	return m
}

func (r *refTables) reserve(owner int32, path, starts []int) error {
	for _, st := range starts {
		if st < 0 || st >= r.slots {
			return fmt.Errorf("tdma: start slot %d out of range [0,%d)", st, r.slots)
		}
		if !r.startFree(path, st) {
			return fmt.Errorf("tdma: start slot %d not free along path", st)
		}
	}
	for _, st := range starts {
		for h, link := range path {
			if i := link*r.slots + (st+h)%r.slots; r.tables[i] == refFree {
				r.tables[i] = owner
			}
		}
	}
	return nil
}

func (r *refTables) release(owner int32, path, starts []int) {
	for _, st := range starts {
		if st < 0 || st >= r.slots {
			continue
		}
		for h, link := range path {
			if i := link*r.slots + (st+h)%r.slots; r.tables[i] == owner {
				r.tables[i] = refFree
			}
		}
	}
}

// findAligned is the reference of FindAlignedInto: for each ideal position
// i*T/n the nearest still-unused free start by widening search (refNearest's
// rule, the lower index on a tie), sorted.
func (r *refTables) findAligned(path []int, n int) ([]int, bool) {
	avail := r.starts(path, true)
	if n <= 0 || len(path) == 0 || len(avail) < n {
		return nil, false
	}
	unused := make([]bool, r.slots)
	for _, st := range avail {
		unused[st] = true
	}
	var chosen []int
	for i := 0; i < n; i++ {
		target := i * r.slots / n
		for d := 0; d < r.slots; d++ {
			up, down := (target+d)%r.slots, (target-d+r.slots)%r.slots
			best := -1
			switch {
			case unused[up] && unused[down]:
				best = min(up, down)
			case unused[up]:
				best = up
			case unused[down]:
				best = down
			}
			if best >= 0 {
				unused[best] = false
				chosen = append(chosen, best)
				break
			}
		}
	}
	slices.Sort(chosen)
	return chosen, true
}

// refNearest widens the search one slot at a time in both directions,
// wrapping with mod T; on a tie the lower index wins.
func refNearest(mask uint64, target, slots int) int {
	for d := 0; d < slots; d++ {
		up, down := (target+d)%slots, (target-d+slots)%slots
		upSet, downSet := mask>>up&1 != 0, mask>>down&1 != 0
		switch {
		case upSet && downSet:
			return min(up, down)
		case upSet:
			return up
		case downSet:
			return down
		}
	}
	return -1
}

// refMismatch describes the first difference between the state and the
// reference — a free bit, a free count, or a stray bit past the last slot
// of a link's mask — or returns "".
func refMismatch(s *State, ref *refTables) string {
	for link := 0; link < s.numLinks; link++ {
		free := 0
		for slot := 0; slot < s.slots; slot++ {
			want := ref.tables[link*s.slots+slot] == refFree
			if want {
				free++
			}
			if isFree(s, link, slot) != want {
				return fmt.Sprintf("link %d slot %d: free %v, reference %v", link, slot, !want, want)
			}
		}
		if s.free[link] != free {
			return fmt.Sprintf("link %d free count %d, reference %d", link, s.free[link], free)
		}
		if tail := s.slots % 64; tail != 0 {
			if last := s.masks[(link+1)*s.words-1]; last&^fullMask(tail) != 0 {
				return fmt.Sprintf("link %d: bits past slot %d set in %#x", link, s.slots, last)
			}
		}
	}
	return ""
}

func matchesRef(s *State, ref *refTables) bool { return refMismatch(s, ref) == "" }

// checkAgainstRef compares every free bit and free count of s with the
// reference.
func checkAgainstRef(t *testing.T, s *State, ref *refTables, what string) {
	t.Helper()
	if d := refMismatch(s, ref); d != "" {
		t.Fatalf("T=%d %s: %s", s.slots, what, d)
	}
}

// pick returns a uniformly chosen element of a non-empty list.
func pick(rng *rand.Rand, xs []int) int { return xs[rng.Intn(len(xs))] }

// TestDivisionFreeWalksMatchModRef: for every word-sized table (T = 1..64,
// T = 64 taking fullMask's own branch) and for multi-word tables (T = 65,
// 96, 128), with paths up to 3T hops, so the slot index wraps several
// times, startMask, nearestSet, AvailableStarts, Reserve and Release agree
// with a per-slot mod-T reference — free bits, free counts, the error text
// and the start Reserve reports when a start is taken.
func TestDivisionFreeWalksMatchModRef(t *testing.T) {
	const links = 5
	rng := rand.New(rand.NewSource(19))
	var sizes []int
	for slots := 1; slots <= 64; slots++ {
		sizes = append(sizes, slots)
	}
	for _, slots := range append(sizes, 65, 96, 128) {
		if slots <= 64 {
			for i := 0; i < 200; i++ {
				mask := rng.Uint64() & fullMask(slots)
				if mask == 0 {
					continue
				}
				target := rng.Intn(slots)
				if got, want := nearestSet(mask, target, slots), refNearest(mask, target, slots); got != want {
					t.Fatalf("T=%d mask %#x: nearestSet(%d) = %d, reference %d", slots, mask, target, got, want)
				}
			}
			if got, want := nearestSet(fullMask(slots), slots-1, slots), refNearest(fullMask(slots), slots-1, slots); got != want {
				t.Fatalf("T=%d full mask: nearestSet(T-1) = %d, reference %d", slots, got, want)
			}
		}

		s := mustState(t, links, slots)
		ref := newRefTables(links, slots)
		type held struct {
			owner        int32
			path, starts []int
		}
		var live []held
		for _, plen := range []int{1, 2, slots - 1, slots, slots + 1, 2*slots + 1, 3 * slots} {
			if plen < 1 {
				continue
			}
			for trial := 0; trial < 4; trial++ {
				path := make([]int, plen)
				for h := range path {
					path[h] = rng.Intn(links)
				}
				if slots <= 64 {
					if got, want := s.startMask(path), ref.startMask(path); got != want {
						t.Fatalf("T=%d path len %d: startMask = %#x, reference %#x", slots, plen, got, want)
					}
				}
				free := ref.starts(path, true)
				if got := s.AvailableStarts(path); !slices.Equal(got, free) {
					t.Fatalf("T=%d path len %d: AvailableStarts = %v, reference %v", slots, plen, got, free)
				}
				owner := int32(len(live) + 1)
				if len(free) > 0 {
					chosen := free[:1+rng.Intn(len(free))]
					reserveBoth(t, s, ref, owner, path, chosen)
					live = append(live, held{owner, path, chosen})
					free = ref.starts(path, true)
				}
				// A taken start behind a free one: same verdict, same
				// reported start, same text, and no change to the state.
				if taken := ref.starts(path, false); len(taken) > 0 {
					bad := []int{pick(rng, taken), pick(rng, taken)}
					if len(free) > 0 {
						bad = append([]int{pick(rng, free)}, bad...)
					}
					err, want := s.Reserve(99, path, bad), ref.reserve(99, path, bad)
					if err == nil || want == nil || err.Error() != want.Error() {
						t.Fatalf("T=%d starts %v: Reserve error %v, reference %v", slots, bad, err, want)
					}
					checkAgainstRef(t, s, ref, "after a refused Reserve")
				}
				if len(live) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(live))
					h := live[k]
					s.Release(h.owner, h.path, h.starts)
					ref.release(h.owner, h.path, h.starts)
					checkAgainstRef(t, s, ref, "after Release")
					live = append(live[:k], live[k+1:]...)
				}
			}
		}
		for _, h := range live {
			s.Release(h.owner, h.path, h.starts)
			ref.release(h.owner, h.path, h.starts)
		}
		checkAgainstRef(t, s, ref, "after releasing everything")
	}
}

// bitWalkState builds an all-free State of `slots` <= 64 slots that stores
// two mask words per link, the second one unused, so Reserve and Release
// take their per-bit walks where a NewState table would take the word form.
func bitWalkState(links, slots int) *State {
	s := &State{numLinks: links, slots: slots, words: 2,
		masks: make([]uint64, 2*links), free: make([]int, links)}
	for l := range links {
		s.masks[2*l] = fullMask(slots)
		s.free[l] = slots
	}
	return s
}

// BenchmarkStateReserveRelease times one Reserve and its Release on a
// half-loaded 64-link state, for tables of 16, 64 and 128 slots, paths of
// 3–6 distinct links and 1–8 starts per reservation. At T = 16 and 64 the
// bitwalk runs repeat it on a bitWalkState with the same load, so the word
// form's gain over the per-bit walk stays measurable.
func BenchmarkStateReserveRelease(b *testing.B) {
	const links = 64
	for _, slots := range []int{16, 64, 128} {
		rng := rand.New(rand.NewSource(int64(slots)))
		s, err := NewState(links, slots)
		if err != nil {
			b.Fatal(err)
		}
		states := map[string]*State{fmt.Sprintf("T=%d", slots): s}
		if slots <= 64 {
			states[fmt.Sprintf("T=%d/bitwalk", slots)] = bitWalkState(links, slots)
		}
		for i := 0; i < links*slots/2; i++ {
			path, starts := []int{rng.Intn(links)}, []int{rng.Intn(slots)}
			for _, st := range states {
				_ = st.Reserve(0, path, starts)
			}
		}
		for name, st := range states {
			for l := range links {
				if st.FreeSlots(l) != s.FreeSlots(l) {
					b.Fatalf("%s: link %d has %d free slots, want %d", name, l, st.FreeSlots(l), s.FreeSlots(l))
				}
			}
		}
		type req struct{ path, starts []int }
		var reqs []req
		for len(reqs) < 64 {
			path := rng.Perm(links)[:3+rng.Intn(4)]
			if starts, ok := s.FindAlignedInto(path, 1+rng.Intn(8), nil); ok {
				reqs = append(reqs, req{path, starts})
			}
		}
		for _, name := range slices.Sorted(maps.Keys(states)) {
			st := states[name]
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					r := reqs[i%len(reqs)]
					if err := st.Reserve(0, r.path, r.starts); err != nil {
						b.Fatal(err)
					}
					st.Release(0, r.path, r.starts)
					i++
				}
			})
		}
	}
}
