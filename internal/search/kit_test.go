package search

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"nocmap/internal/core"
	"nocmap/internal/verify"
)

// TestProposeInvariants drives the Kit's proposal over the greedy D1 and D2
// sessions, keeping every other feasible candidate. A failed proposal must
// leave the session's placement unchanged and no proposal may seat more
// than CoresPerNI cores on an NI. A kept proposal must verify clean, and
// its reported stats must equal those recomputed from its reservations
// replayed into a fresh session. (A from-scratch Evaluate of the placement
// is no oracle for the stats: the session re-routes only the moved cores'
// flows, so its reservations may legitimately differ from the ones a full
// configuration pass would choose.)
func TestProposeInvariants(t *testing.T) {
	for _, name := range []string{"D1", "D2"} {
		t.Run(name, func(t *testing.T) {
			prep, n := prepared(t, name)
			p := core.DefaultParams()
			base, err := core.Map(prep, n, p)
			if err != nil {
				t.Fatal(err)
			}
			k := &Kit{
				NumCores: n, P: p, Opts: DefaultOptions(),
				Rng:   rand.New(rand.NewSource(1)),
				Evals: NewEvalCache(prep, n, p),
				cs:    make([]int, n),
				cn:    make([]int, n),
			}
			k.fit(base)
			ev, err := k.Evals.For(base.Mapping.Topology)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := ev.SessionFrom(base)
			if err != nil {
				t.Fatal(err)
			}
			attached := attachedCores(base.Mapping.CoreSwitch)
			var feasible, failed int
			for i := 0; i < 400; i++ {
				beforeCS, beforeCN := placementOf(sess, n)
				stats, _, ok := k.Propose(sess, attached)
				cs, cn := placementOf(sess, n)
				if !ok {
					failed++
					if !slices.Equal(cs, beforeCS) || !slices.Equal(cn, beforeCN) {
						t.Fatalf("proposal %d failed but moved the session", i)
					}
					continue
				}
				feasible++
				load := make([]int, len(k.niLoad))
				for _, ni := range cn {
					if ni < 0 {
						continue
					}
					if load[ni]++; load[ni] > p.CoresPerNI {
						t.Fatalf("proposal %d seats %d cores on NI %d, limit %d", i, load[ni], ni, p.CoresPerNI)
					}
				}
				if i%2 == 1 {
					sess.Undo()
					if cs, cn := placementOf(sess, n); !slices.Equal(cs, beforeCS) || !slices.Equal(cn, beforeCN) {
						t.Fatalf("proposal %d: Undo did not restore the placement", i)
					}
					continue
				}
				sess.Keep()
				res := sess.Result()
				if vs := verify.Check(res.Mapping); len(vs) != 0 {
					t.Fatalf("proposal %d: kept configuration has violations: %v", i, vs)
				}
				replay, err := ev.SessionFrom(res)
				if err != nil {
					t.Fatalf("proposal %d: kept configuration does not replay: %v", i, err)
				}
				if replay.Stats() != stats {
					t.Fatalf("proposal %d: stats %+v, replayed reservations %+v", i, stats, replay.Stats())
				}
			}
			if feasible == 0 || failed == 0 {
				t.Fatalf("%d feasible and %d failed proposals; the test needs both", feasible, failed)
			}
		})
	}
}

// placementOf returns copies of the session's current placement.
func placementOf(sess *core.Session, numCores int) (cs, cn []int) {
	cs, cn = make([]int, numCores), make([]int, numCores)
	sess.PlacementInto(cs, cn)
	return cs, cn
}

// TestMoveLoopYieldStride pins the move loop's cooperative yield: an anneal
// yields once every 16 proposals, and the yield changes nothing. The
// annealer proposes once per move it counts, so a run of M moves yields
// M/16 times. The stride is the one the paired stream-anneal records
// chose; changing it needs new records, not just a new number here. The counted run (whose hook does not yield)
// and a run with the real yield return the same result and the same event
// stream.
func TestMoveLoopYieldStride(t *testing.T) {
	prep, n := prepared(t, "D2")
	p := core.DefaultParams()
	run := func(hook func()) (*core.Result, []Event) {
		saved := yield
		yield = hook
		defer func() { yield = saved }()
		var events []Event
		opts := DefaultOptions()
		opts.Seed = 3
		opts.Iters = 500
		opts.Progress = func(e Event) { events = append(events, e) }
		res, err := Anneal{}.Search(context.Background(), prep, n, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, events
	}
	const stride = 16
	if yieldStride != stride {
		t.Fatalf("yieldStride = %d, pinned at %d", yieldStride, stride)
	}
	var yields int64
	counted, countedEvents := run(func() { yields++ })
	done := countedEvents[len(countedEvents)-1]
	if done.Stage != StageDone || done.Moves < 10*stride {
		t.Fatalf("final event %+v: want StageDone after at least %d moves", done, 10*stride)
	}
	if want := done.Moves / stride; yields != want {
		t.Errorf("%d moves yielded %d times, want %d (one per %d proposals)", done.Moves, yields, want, stride)
	}

	yielded, yieldedEvents := run(runtime.Gosched)
	if yielded.Stats != counted.Stats ||
		!slices.Equal(yielded.Mapping.CoreSwitch, counted.Mapping.CoreSwitch) ||
		!slices.Equal(yielded.Mapping.CoreNI, counted.Mapping.CoreNI) ||
		!reflect.DeepEqual(yielded.Mapping.Configs, counted.Mapping.Configs) {
		t.Errorf("the yield changed the result: %+v vs %+v", yielded.Stats, counted.Stats)
	}
	if len(yieldedEvents) != len(countedEvents) {
		t.Fatalf("the yield changed the event stream: %d vs %d events", len(yieldedEvents), len(countedEvents))
	}
	for i := range yieldedEvents {
		if yieldedEvents[i].Stage != countedEvents[i].Stage || yieldedEvents[i].Counts != countedEvents[i].Counts {
			t.Errorf("event %d: %v %+v with the yield, %v %+v without", i,
				yieldedEvents[i].Stage, yieldedEvents[i].Counts, countedEvents[i].Stage, countedEvents[i].Counts)
		}
	}
}
