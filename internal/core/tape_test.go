package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// distinctAssignments lists a mapping's assignments once each (the
// use-cases of a group share theirs).
func distinctAssignments(m *Mapping) []*Assignment {
	var out []*Assignment
	seen := map[*Assignment]bool{}
	for _, cfg := range m.Configs {
		for _, a := range cfg.Assignments {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// checkIndependent appends to every assignment's path and starts in turn
// and requires every assignment's path and starts to read as before: the
// assignments share backing arrays, so each slice must be capped at its
// length.
func checkIndependent(t *testing.T, what string, m *Mapping) {
	t.Helper()
	asn := distinctAssignments(m)
	if len(asn) == 0 {
		t.Fatalf("%s: no assignments", what)
	}
	paths, starts := make([][]int, len(asn)), make([][]int, len(asn))
	for i, a := range asn {
		paths[i], starts[i] = slices.Clone(a.Path), slices.Clone(a.Starts)
	}
	check := func(what string) {
		t.Helper()
		for j, b := range asn {
			if !slices.Equal(b.Path, paths[j]) || !slices.Equal(b.Starts, starts[j]) {
				t.Fatalf("%s changed assignment %d", what, j)
			}
		}
	}
	for i, a := range asn {
		_ = append(a.Path, -1, -1, -1)
		check(fmt.Sprintf("%s: appending to assignment %d's path", what, i))
		_ = append(a.Starts, -1, -1, -1)
		check(fmt.Sprintf("%s: appending to assignment %d's starts", what, i))
	}
}

func d4Prep(t *testing.T) (*usecase.Prepared, int) {
	t.Helper()
	d, err := bench.D4()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	return pr, d.NumCores()
}

// TestTapeAssignmentsIndependent: the assignments a growth result and a
// session result copy off their reservations never alias one another.
func TestTapeAssignmentsIndependent(t *testing.T) {
	pr, n := d4Prep(t)
	p := DefaultParams()
	res := mustMap(t, pr, n, p)
	checkIndependent(t, "core.Map(D4)", res.Mapping)
	ev, err := NewEvaluator(pr, n, res.Mapping.Topology, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ev.SessionFrom(res)
	if err != nil {
		t.Fatal(err)
	}
	checkIndependent(t, "Session.Result(D4)", s.Result().Mapping)
}

// checkScratchFree requires a scratch arena to hold no reservation: every
// link of every state all-free, the journal and tape empty and the
// assignment table zero.
func checkScratchFree(t *testing.T, what string, ev *Evaluator, sc *evalScratch) {
	t.Helper()
	for g, st := range sc.states {
		for l := 0; l < ev.totalLinks; l++ {
			if free := st.FreeSlots(l); free != ev.p.SlotTableSize {
				t.Fatalf("%s: group %d link %d has %d of %d slots free", what, g, l, free, ev.p.SlotTableSize)
			}
		}
	}
	if len(sc.journal) != 0 || len(sc.tape) != 0 {
		t.Fatalf("%s: %d journal entries and %d tape words left", what, len(sc.journal), len(sc.tape))
	}
	for g, row := range sc.configs {
		if i := slices.IndexFunc(row, func(k int32) bool { return k != 0 }); i >= 0 {
			t.Fatalf("%s: assignment table still holds group %d pair %d", what, g, i)
		}
	}
}

// TestFailedAttemptLeavesScratchFree: D4 does not fit a 1x3 mesh, and the
// failed constructive pass leaves reservations of the pairs it routed on
// the tape. Returned to the pool, the arena must be all-free, and so must
// the pooled arena after a rejected Evaluate. The growth loop's attempt
// instead forgets its journal and hands the arena on: refitted to the next
// fabric, it must be all-free too.
func TestFailedAttemptLeavesScratchFree(t *testing.T) {
	pr, n := d4Prep(t)
	p := DefaultParams()
	top, err := topology.NewMesh(1, 3, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(pr, n, top, p)
	if err != nil {
		t.Fatal(err)
	}
	sc := ev.getScratch()
	if _, err := ev.mapperFor(sc).run(); err == nil {
		t.Fatal("D4 mapped onto a 1x3 mesh")
	}
	if len(sc.journal) == 0 {
		t.Fatal("the failed attempt granted no reservation")
	}
	ev.putScratch(sc)
	checkScratchFree(t, "mapper on 1x3", ev, sc)

	res := mustMap(t, pr, n, p)
	on, err := ev.On(res.Mapping.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.Evaluate(res.Mapping.CoreSwitch, res.Mapping.CoreNI); err == nil {
		t.Fatal("the fixed pass accepted D4's greedy placement, which it rejects in group 12")
	}
	checkScratchFree(t, "draw after rejected Evaluate", on, on.getScratch())

	carried := ev.newScratch()
	if _, _, err := ev.attempt(carried); err == nil {
		t.Fatal("D4 attempt on a 1x3 mesh succeeded")
	}
	checkScratchFree(t, "attempt on 1x3, refitted to 2x2", on, on.refit(carried))
	got, _, err := on.attempt(carried)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res.Mapping) {
		t.Error("the carried arena mapped D4 on 2x2 differently from core.Map")
	}
}

// TestSessionFromRejectsBadStarts: a result whose start lists a session
// cannot claim is an error naming the pair and its group, never a panic.
// The slot tables span one word (T=64) and two (T=128), and the bad starts
// lie inside the table's last word, past it and below zero.
func TestSessionFromRejectsBadStarts(t *testing.T) {
	pr, n := d4Prep(t)
	for _, T := range []int{64, 128} {
		p := DefaultParams()
		p.SlotTableSize = T
		cases := []struct {
			name string
			// corrupt breaks the result and returns the pair whose replay
			// must fail and the error's tdma text.
			corrupt func(m *Mapping, first, second traffic.PairKey) (traffic.PairKey, string)
		}{
			{"out of range", func(m *Mapping, first, _ traffic.PairKey) (traffic.PairKey, string) {
				a := m.Configs[0].Assignments[first]
				a.Starts = append(a.Starts, T)
				return first, fmt.Sprintf("start slot %d out of range [0,%d)", T, T)
			}},
			{"past the last word", func(m *Mapping, first, _ traffic.PairKey) (traffic.PairKey, string) {
				a := m.Configs[0].Assignments[first]
				a.Starts = append(a.Starts, 64*tdma.Words(T)+3)
				return first, fmt.Sprintf("start slot %d out of range [0,%d)", 64*tdma.Words(T)+3, T)
			}},
			{"negative", func(m *Mapping, first, _ traffic.PairKey) (traffic.PairKey, string) {
				a := m.Configs[0].Assignments[first]
				a.Starts = append([]int{-1}, a.Starts...)
				return first, fmt.Sprintf("start slot -1 out of range [0,%d)", T)
			}},
			{"listed twice", func(m *Mapping, first, _ traffic.PairKey) (traffic.PairKey, string) {
				a := m.Configs[0].Assignments[first]
				a.Starts = append(a.Starts, a.Starts[0])
				return first, fmt.Sprintf("start slot %d not free along path", a.Starts[0])
			}},
			{"claimed by two pairs", func(m *Mapping, first, second traffic.PairKey) (traffic.PairKey, string) {
				a, b := m.Configs[0].Assignments[first], m.Configs[0].Assignments[second]
				b.Path, b.Starts = slices.Clone(a.Path), slices.Clone(a.Starts)
				return second, "not free along path"
			}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("T%d/%s", T, tc.name), func(t *testing.T) {
				res := mustMap(t, pr, n, p)
				ev, err := NewEvaluator(pr, n, res.Mapping.Topology, p)
				if err != nil {
					t.Fatal(err)
				}
				// The first use-case's first two pairs replay first in its group.
				first, second := ev.ucPairs[0][0].key, ev.ucPairs[0][1].key
				bad, text := tc.corrupt(res.Mapping, first, second)
				_, err = ev.SessionFrom(res)
				if err == nil {
					t.Fatal("SessionFrom accepted the corrupted result")
				}
				want := fmt.Sprintf("core: result not reservable (pair %d->%d, group %d): tdma: ", bad.Src, bad.Dst, pr.GroupOf[0])
				if msg := err.Error(); !strings.HasPrefix(msg, want) || !strings.Contains(msg, text) {
					t.Fatalf("error %q, want prefix %q and %q", msg, want, text)
				}
			})
		}
	}
}
