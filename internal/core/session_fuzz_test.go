package core_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
)

// fuzzBase is one design's greedy mapping and the evaluator on its fabric,
// built once per process and shared by every fuzz input.
type fuzzBase struct {
	ev       *core.Evaluator
	res      *core.Result
	attached []int
	numNIs   int
}

var (
	fuzzOnce  sync.Once
	fuzzBases []*fuzzBase
	fuzzErr   error
)

func fuzzDesigns() ([]*fuzzBase, error) {
	fuzzOnce.Do(func() {
		for _, build := range []func() (*traffic.Design, error){bench.D1, bench.D2} {
			d, err := build()
			if err != nil {
				fuzzErr = err
				return
			}
			prep, err := usecase.Prepare(d)
			if err != nil {
				fuzzErr = err
				return
			}
			p := core.DefaultParams()
			res, err := core.Map(prep, d.NumCores(), p)
			if err != nil {
				fuzzErr = err
				return
			}
			ev, err := core.NewEvaluator(prep, d.NumCores(), res.Mapping.Topology, p)
			if err != nil {
				fuzzErr = err
				return
			}
			b := &fuzzBase{ev: ev, res: res, numNIs: res.Mapping.Topology.NumSwitches() * p.NIsPerSwitch}
			for c, s := range res.Mapping.CoreSwitch {
				if s >= 0 {
					b.attached = append(b.attached, c)
				}
			}
			fuzzBases = append(fuzzBases, b)
		}
	})
	return fuzzBases, fuzzErr
}

// replayStats recomputes a result's statistics the one-shot way: its
// group-shared reservations replayed into fresh slot tables, then the
// reference computeStats.
func replayStats(t *testing.T, res *core.Result) core.Stats {
	t.Helper()
	m := res.Mapping
	states := make([]*tdma.State, len(m.Prep.Groups))
	owner := int32(0)
	for g, group := range m.Prep.Groups {
		st, err := tdma.NewState(m.TotalLinks(), m.Params.SlotTableSize)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[*core.Assignment]bool{}
		for _, uc := range group {
			for _, a := range m.Configs[uc].Assignments {
				if seen[a] {
					continue
				}
				seen[a] = true
				if err := st.Reserve(owner, a.Path, a.Starts); err != nil {
					t.Fatalf("group %d: result not reservable: %v", g, err)
				}
				owner++
			}
		}
		states[g] = st
	}
	return core.ComputeStats(m, states)
}

// TestStatsMatchReference holds the stats of the growth loop and of
// Evaluate, which read the scratch arena's reservation table, to the
// reference computeStats over the result's Config maps, on both families
// and on slot tables of and off a power of two.
func TestStatsMatchReference(t *testing.T) {
	evaluated := 0
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := usecase.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus} {
			for _, slots := range []int{64, 48} {
				p := core.DefaultParams()
				p.Topology.Kind, p.SlotTableSize = kind, slots
				label := fmt.Sprintf("%s/%v/T%d", name, kind, slots)
				res, ev, err := core.MapWithEvaluator(context.Background(), prep, d.NumCores(), p)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want := replayStats(t, res); res.Stats != want {
					t.Fatalf("%s: growth stats %+v, reference %+v", label, res.Stats, want)
				}
				again, err := ev.Evaluate(res.Mapping.CoreSwitch, res.Mapping.CoreNI)
				if err != nil {
					continue // a constructive result need not re-route under a fixed placement
				}
				if want := replayStats(t, again); again.Stats != want {
					t.Fatalf("%s: Evaluate stats %+v, reference %+v", label, again.Stats, want)
				}
				evaluated++
			}
		}
	}
	if evaluated == 0 {
		t.Fatal("no growth placement re-evaluated; the Evaluate half checked nothing")
	}
	t.Logf("%d of 16 growth placements re-evaluated", evaluated)
}

// checkCommitted asserts the invariants of a session's committed state.
func checkCommitted(t *testing.T, label string, sess *core.Session) *core.Result {
	t.Helper()
	res := sess.Result()
	if vs := verify.Check(res.Mapping); len(vs) != 0 {
		t.Fatalf("%s: committed result has violations: %v", label, vs)
	}
	if want := replayStats(t, res); sess.Stats() != want || res.Stats != want {
		t.Fatalf("%s: session stats %+v, result stats %+v, recomputed %+v", label, sess.Stats(), res.Stats, want)
	}
	return res
}

// FuzzSessionMoves drives random TryMove/Keep/Undo/Clone sequences on the
// D1 and D2 sessions. Every committed result must verify clean with stats
// equal to a from-scratch recomputation, Undo must restore the exact
// pre-move result, and a move the session rejects must also be rejected by
// the pair-major reference evaluation of the same placement. After every operation
// the maintained cross-switch sums must match a recomputation, and every
// precheck verdict must match the full-scan oracle's.
//
// Each op is three bytes: the op code, then two operands. Op codes: swap two
// attached cores' seats, relocate one core to an NI, or clone the session;
// the low bit of the first operand decides Keep or Undo for moves.
func FuzzSessionMoves(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 0, 3, 5, 1, 2, 7, 2, 0, 0, 0, 4, 9})
	f.Add(uint8(1), []byte{0, 2, 5, 1, 6, 3, 2, 0, 0, 0, 8, 1, 1, 9, 4})
	f.Add(uint8(1), []byte{1, 0, 0, 1, 1, 1, 1, 2, 2, 2, 0, 0, 1, 3, 3})
	f.Fuzz(func(t *testing.T, design uint8, ops []byte) {
		bases, err := fuzzDesigns()
		if err != nil {
			t.Fatal(err)
		}
		b := bases[int(design)%len(bases)]
		sess, err := b.ev.SessionFrom(b.res)
		if err != nil {
			t.Fatal(err)
		}
		committed := checkCommitted(t, "start", sess)
		numCores := len(b.res.Mapping.CoreSwitch)
		cs, cn := make([]int, numCores), make([]int, numCores)
		p := b.res.Mapping.Params
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			op, x, y := ops[i]%3, int(ops[i+1]), int(ops[i+2])
			var moved []int
			sess.PlacementInto(cs, cn)
			switch op {
			case 0: // swap two attached cores
				a, c := b.attached[x%len(b.attached)], b.attached[y%len(b.attached)]
				if a == c {
					continue
				}
				cs[a], cs[c] = cs[c], cs[a]
				cn[a], cn[c] = cn[c], cn[a]
				moved = []int{a, c}
			case 1: // relocate one core to an NI
				a := b.attached[x%len(b.attached)]
				ni := y % b.numNIs
				cs[a], cn[a] = ni/p.NIsPerSwitch, ni
				moved = []int{a}
			case 2:
				clone, err := sess.Clone()
				if err != nil {
					t.Fatalf("op %d: clone: %v", i/3, err)
				}
				if got := clone.Result(); !reflect.DeepEqual(got, committed) {
					t.Fatalf("op %d: clone diverges from its source", i/3)
				}
				sess = clone
				checkCrossSums(t, fmt.Sprintf("op %d: clone", i/3), sess)
				continue
			}
			stats, err := tryMoveChecked(t, fmt.Sprintf("op %d", i/3), b.ev, sess, cs, cn, moved...)
			if err != nil {
				if _, ferr := b.ev.EvaluateReference(cs, cn); ferr == nil {
					t.Fatalf("op %d: session rejected %v (%v), from-scratch evaluation accepts it", i/3, moved, err)
				}
				if got := sess.Result(); !reflect.DeepEqual(got, committed) {
					t.Fatalf("op %d: rejected move changed the session", i/3)
				}
				continue
			}
			if x%2 == 0 {
				sess.Keep()
				checkCrossSums(t, fmt.Sprintf("op %d: keep", i/3), sess)
				committed = checkCommitted(t, "keep", sess)
				if stats != committed.Stats {
					t.Fatalf("op %d: TryMove reported %+v, committed %+v", i/3, stats, committed.Stats)
				}
				continue
			}
			sess.Undo()
			checkCrossSums(t, fmt.Sprintf("op %d: undo", i/3), sess)
			if got := sess.Result(); !reflect.DeepEqual(got, committed) {
				t.Fatalf("op %d: Undo did not restore the pre-move result", i/3)
			}
		}
	})
}
