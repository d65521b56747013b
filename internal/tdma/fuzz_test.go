package tdma

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzState runs random Reserve, Release, FindAlignedInto, ReserveAligned,
// ReserveStarts, Reset and Clone sequences against the per-slot refTables model, for
// tables of 2 to 130 slots (one and several mask words) and paths that may
// visit a link more than once. After every step the free bits and free
// counts must match the reference, FindAlignedInto must pick the
// reference's starts, Reserve must give the reference's verdict and error
// text, and ReserveAligned must claim what the reference's FindAlignedInto
// and Reserve sequence, escalating the start count to meet a random latency
// budget (or none), claims.
func FuzzState(f *testing.F) {
	for _, slots := range []uint8{2, 3, 7, 16, 63, 64, 65, 96, 128, 130} {
		f.Add(slots, uint8(slots%5), int64(slots))
	}
	f.Fuzz(func(t *testing.T, slotsIn, linksIn uint8, seed int64) {
		slots, links := 2+int(slotsIn)%129, 1+int(linksIn)%5
		rng := rand.New(rand.NewSource(seed))
		s := mustState(t, links, slots)
		ref := newRefTables(links, slots)
		type held struct {
			owner        int32
			path, starts []int
		}
		var live []held
		randPath := func() []int {
			n := 1 + rng.Intn(6)
			if rng.Intn(8) == 0 {
				n = 1 + rng.Intn(2*slots+2) // long enough to wrap the table
			}
			path := make([]int, n)
			for h := range path {
				path[h] = rng.Intn(links) // repeats are allowed
			}
			return path
		}
		for step := 0; step < 64; step++ {
			switch op := rng.Intn(12); {
			case op < 4: // FindAlignedInto, then reserve what it found
				path, n := randPath(), 1+rng.Intn(8)
				got, ok := s.FindAlignedInto(path, n, nil)
				want, wantOK := ref.findAligned(path, n)
				if ok != wantOK || !slices.Equal(got, want) {
					t.Fatalf("T=%d FindAlignedInto(%v, %d) = %v, %v; reference %v, %v", slots, path, n, got, ok, want, wantOK)
				}
				if ok {
					owner := int32(step)
					reserveBoth(t, s, ref, owner, path, got)
					live = append(live, held{owner, path, got})
				}
			case op < 6: // Reserve arbitrary starts, in range or not
				path := randPath()
				starts := make([]int, 1+rng.Intn(4))
				for i := range starts {
					starts[i] = rng.Intn(slots+2) - 1
				}
				owner := int32(step)
				var err error
				if rng.Intn(2) == 0 {
					err = s.Reserve(owner, path, starts)
				} else {
					// The in-range starts as a start set, which ReserveStarts
					// checks in ascending order.
					set := startSet(s, starts)
					starts = AppendStarts(nil, set)
					err = s.ReserveStarts(path, set)
				}
				if want := ref.reserve(owner, path, starts); (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
					t.Fatalf("T=%d Reserve(%v, %v) = %v, reference %v", slots, path, starts, err, want)
				}
				if err == nil {
					live = append(live, held{owner, path, starts})
				}
			case op < 8: // release a live reservation
				if len(live) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				h := live[k]
				s.Release(h.path, startSet(s, h.starts))
				ref.release(h.owner, h.path, h.starts)
				live = slices.Delete(live, k, k+1)
			case op < 10: // ReserveAligned against the escalating reference
				path, n := randPath(), 1+rng.Intn(8)
				budget := -1 // none
				if rng.Intn(3) > 0 {
					budget = len(path) + 1 + rng.Intn(slots+1)
				}
				var want []int
				wantOK := false
				for k := n; !wantOK; k++ {
					starts, ok := ref.findAligned(path, k)
					if !ok {
						break
					}
					if budget < 0 || WorstCaseLatencySlots(starts, len(path), slots) <= budget {
						want, wantOK = starts, true
					}
				}
				set := make([]uint64, Words(slots))
				k := s.ReserveAligned(path, n, budget, set)
				ok := k > 0
				got := AppendStarts(nil, set)
				if ok != wantOK || (ok && (!slices.Equal(got, want) || k != len(want))) {
					t.Fatalf("T=%d ReserveAligned(%v, %d, budget %d) = %v, %v; reference %v, %v",
						slots, path, n, budget, got, ok, want, wantOK)
				}
				if ok {
					owner := int32(step)
					if err := ref.reserve(owner, path, want); err != nil {
						t.Fatalf("T=%d reference refuses the claimed starts %v: %v", slots, want, err)
					}
					live = append(live, held{owner, path, got})
				}
			case op == 10: // release free starts and bits past the table: a no-op
				path := randPath()
				junk := startSet(s, nil)
				if free := ref.starts(path, true); len(free) > 0 {
					st := pick(rng, free)
					junk[st>>6] |= 1 << (st & 63)
				}
				if tail := slots % 64; tail != 0 {
					junk[len(junk)-1] |= 1 << (tail + rng.Intn(64-tail))
				}
				s.Release(path, junk)
			default: // Reset or Clone
				if rng.Intn(2) == 0 {
					s.Reset()
					ref.reset()
					live = live[:0]
					break
				}
				c, refC := s.Clone(), ref.clone()
				s.Reset() // the clone must not share storage with the original
				checkAgainstRef(t, c, refC, "clone after resetting the original")
				s, ref = c, refC
			}
			checkAgainstRef(t, s, ref, "after a fuzz step")
		}
	})
}
