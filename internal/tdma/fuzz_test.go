package tdma

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzState runs random Reserve, Release, FindAlignedInto, ReserveAligned,
// Reset and Clone sequences against the per-slot refTables model, for
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
				err, want := s.Reserve(owner, path, starts), ref.reserve(owner, path, starts)
				if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
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
				s.Release(h.owner, h.path, h.starts)
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
				got, ok := s.ReserveAligned(path, n, budget, nil)
				if ok != wantOK || (ok && !slices.Equal(got, want)) {
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
			case op == 10: // release starts that are free or out of range: a no-op
				path := randPath()
				junk := []int{-1 - rng.Intn(3), slots + rng.Intn(3)}
				if free := ref.starts(path, true); len(free) > 0 {
					junk = append(junk, pick(rng, free))
				}
				s.Release(0, path, junk)
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
