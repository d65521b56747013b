package tdma

import (
	"fmt"
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

func TestReserveAndAlignment(t *testing.T) {
	s := mustState(t, 3, 8)
	path := []int{0, 1, 2}
	if err := s.Reserve(7, path, []int{2}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	// Contention-free alignment: link 0 slot 2, link 1 slot 3, link 2 slot 4.
	if s.Owner(0, 2) != 7 || s.Owner(1, 3) != 7 || s.Owner(2, 4) != 7 {
		t.Error("aligned slots not owned")
	}
	if s.Owner(0, 3) != Free || s.Owner(1, 2) != Free {
		t.Error("unrelated slots disturbed")
	}
	if s.FreeSlots(0) != 7 {
		t.Errorf("link 0 free = %d, want 7", s.FreeSlots(0))
	}
}

func TestReserveWrapAround(t *testing.T) {
	s := mustState(t, 2, 4)
	path := []int{0, 1}
	if err := s.Reserve(1, path, []int{3}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	// Slot 3 on link 0 wraps to slot 0 on link 1.
	if s.Owner(1, 0) != 1 {
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

func TestReleaseOnlyOwn(t *testing.T) {
	s := mustState(t, 1, 4)
	if err := s.Reserve(1, []int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(2, []int{0}, []int{1}); err != nil {
		t.Fatal(err)
	}
	// Releasing flow 1's slot with flow 2's token must not free it.
	s.Release(2, []int{0}, []int{0})
	if s.Owner(0, 0) != 1 {
		t.Error("Release freed a slot it did not own")
	}
	s.Release(1, []int{0}, []int{0})
	if s.Owner(0, 0) != Free {
		t.Error("Release failed to free owned slot")
	}
	// Out-of-range starts are ignored.
	s.Release(2, []int{0}, []int{-3, 99})
	if s.Owner(0, 1) != 2 {
		t.Error("Release with junk starts disturbed state")
	}
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
	if s.Owner(0, 1) != Free {
		t.Error("Clone shares backing storage")
	}
	if c.Owner(0, 0) != 1 {
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
			made = append(made, res{owner, path, starts})
		}
		// No slot has two owners (trivially true by representation) and every
		// reservation's slots are correctly owned.
		for _, r := range made {
			for _, st := range r.starts {
				for h, link := range r.path {
					if s.Owner(link, st+h) != r.owner {
						return false
					}
				}
			}
		}
		// Release everything; state must be fully free.
		for _, r := range made {
			s.Release(r.owner, r.path, r.starts)
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

// countFree is the O(T) reference implementation of FreeSlots; the
// incremental counter must agree with it after any Reserve/Release/Reset
// sequence.
func countFree(s *State, link int) int {
	n := 0
	for slot := 0; slot < s.Slots(); slot++ {
		if s.Owner(link, slot) == Free {
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
	path := []int{0, 1, 2}
	starts, ok := s.FindAlignedInto(path, 3, nil)
	if !ok {
		t.Fatal("FindAlignedInto failed on empty state")
	}
	if err := s.Reserve(7, path, starts); err != nil {
		t.Fatal(err)
	}
	path2 := []int{1, 3}
	starts2, ok := s.FindAlignedInto(path2, 2, nil)
	if !ok {
		t.Fatal("second FindAlignedInto failed")
	}
	if err := s.Reserve(8, path2, starts2); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < s.NumLinks(); l++ {
		if got, want := s.FreeSlots(l), countFree(s, l); got != want {
			t.Errorf("after reserve: FreeSlots(%d) = %d, table scan = %d", l, got, want)
		}
	}
	s.Release(7, path, starts)
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
	fresh, _ := NewState(3, 6)
	for l := 0; l < s.NumLinks(); l++ {
		if s.FreeSlots(l) != fresh.FreeSlots(l) {
			t.Errorf("link %d: FreeSlots %d after Reset, want %d", l, s.FreeSlots(l), fresh.FreeSlots(l))
		}
		for slot := 0; slot < s.Slots(); slot++ {
			if s.Owner(l, slot) != Free {
				t.Errorf("link %d slot %d not free after Reset", l, slot)
			}
		}
	}
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

// refTables is the per-slot reference the division-free walks are checked
// against: plain owner tables indexed with (st+h) mod T on every hop.
type refTables struct {
	slots  int
	tables []int32
}

func newRefTables(links, slots int) *refTables {
	r := &refTables{slots: slots, tables: make([]int32, links*slots)}
	for i := range r.tables {
		r.tables[i] = Free
	}
	return r
}

func (r *refTables) startFree(path []int, st int) bool {
	for h, link := range path {
		if r.tables[link*r.slots+(st+h)%r.slots] != Free {
			return false
		}
	}
	return true
}

func (r *refTables) startMask(path []int) uint64 {
	var m uint64
	for st := 0; st < r.slots; st++ {
		if r.startFree(path, st) {
			m |= uint64(1) << st
		}
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
			if i := link*r.slots + (st+h)%r.slots; r.tables[i] == Free {
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
				r.tables[i] = Free
			}
		}
	}
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

// randomBit returns the index of a uniformly chosen set bit of a non-zero
// mask.
func randomBit(rng *rand.Rand, mask uint64) int {
	for k := rng.Intn(bits.OnesCount64(mask)); k > 0; k-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros64(mask)
}

// checkAgainstRef compares every table entry, free count and free mask of s
// with the reference.
func checkAgainstRef(t *testing.T, s *State, ref *refTables, what string) {
	t.Helper()
	if !slices.Equal(s.tables, ref.tables) {
		t.Fatalf("T=%d %s: tables differ from the mod-T reference", s.slots, what)
	}
	for link := 0; link < s.numLinks; link++ {
		var mask uint64
		free := 0
		for slot := 0; slot < s.slots; slot++ {
			if ref.tables[link*s.slots+slot] == Free {
				mask |= uint64(1) << slot
				free++
			}
		}
		if s.free[link] != free {
			t.Fatalf("T=%d %s: link %d free count %d, reference %d", s.slots, what, link, s.free[link], free)
		}
		if s.masks[link] != mask {
			t.Fatalf("T=%d %s: link %d mask %#x, reference %#x", s.slots, what, link, s.masks[link], mask)
		}
	}
}

// TestDivisionFreeWalksMatchModRef: for every word-sized table (T = 1..64,
// T = 64 taking fullMask's own branch) and paths up to 3T hops, so the slot
// index wraps several times, startMask, nearestSet, Reserve and Release
// agree with a per-slot mod-T reference — tables, free counts, masks, the
// error text and the start Reserve reports when a start is taken.
func TestDivisionFreeWalksMatchModRef(t *testing.T) {
	const links = 5
	rng := rand.New(rand.NewSource(19))
	for slots := 1; slots <= 64; slots++ {
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
				if got, want := s.startMask(path), ref.startMask(path); got != want {
					t.Fatalf("T=%d path len %d: startMask = %#x, reference %#x", slots, plen, got, want)
				}
				owner := int32(len(live) + 1)
				if starts := s.AvailableStarts(path); len(starts) > 0 {
					pick := starts[:1+rng.Intn(len(starts))]
					if err := s.Reserve(owner, path, pick); err != nil {
						t.Fatalf("T=%d: Reserve of available starts %v: %v", slots, pick, err)
					}
					if err := ref.reserve(owner, path, pick); err != nil {
						t.Fatalf("T=%d: reference reserve of %v: %v", slots, pick, err)
					}
					checkAgainstRef(t, s, ref, "after Reserve")
					live = append(live, held{owner, path, pick})
				}
				// A taken start behind a free one: same verdict, same
				// reported start, same text, and no change to the state.
				if taken := ^ref.startMask(path) & fullMask(slots); taken != 0 {
					bad := []int{randomBit(rng, taken), randomBit(rng, taken)}
					if free := ref.startMask(path); free != 0 {
						bad = append([]int{randomBit(rng, free)}, bad...)
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
