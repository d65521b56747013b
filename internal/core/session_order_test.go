package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// TestSessionGroupOrderInvariant runs one seeded move sequence on D1–D4 at
// T = 16, 64 and 128 (start sets of two words) through three sessions that
// start from the same result and differ only in the order their moves
// evaluate the groups (identity, reversed, rotated). Each group owns its
// slot tables, so the order may
// decide only how soon an infeasible move is rejected: every verdict, every
// returned Stats and, after every Keep, the whole Result must be equal. The
// sequences must include moves rejected by a failed from-scratch rebuild,
// the case the order reorders.
func TestSessionGroupOrderInvariant(t *testing.T) {
	rebuildRejected := 0
	for _, design := range []string{"D1", "D2", "D3", "D4"} {
		for _, slots := range []int{16, 64, 128} {
			label := fmt.Sprintf("%s/T=%d", design, slots)
			d, err := bench.ByName(design)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := usecase.Prepare(d)
			if err != nil {
				t.Fatal(err)
			}
			p := core.DefaultParams()
			p.SlotTableSize = slots
			base, err := core.Map(prep, d.NumCores(), p)
			if err != nil {
				t.Fatal(err)
			}
			m := base.Mapping
			ev, err := core.NewEvaluator(prep, d.NumCores(), m.Topology, p)
			if err != nil {
				t.Fatal(err)
			}
			var sessions []*core.Session
			for variant := 0; variant < 3; variant++ {
				sess, err := ev.SessionFrom(base)
				if err != nil {
					t.Fatal(err)
				}
				n := len(prep.Groups)
				order := make([]int, n)
				for i := range order {
					switch variant {
					case 0:
						order[i] = i
					case 1:
						order[i] = n - 1 - i
					case 2:
						order[i] = (i + n/2) % n
					}
				}
				sess.SetGroupOrder(order)
				sessions = append(sessions, sess)
			}
			var attached []int
			for c, sw := range m.CoreSwitch {
				if sw >= 0 {
					attached = append(attached, c)
				}
			}
			numNIs := m.Topology.NumSwitches() * p.NIsPerSwitch
			cs, cn := make([]int, d.NumCores()), make([]int, d.NumCores())
			rng := rand.New(rand.NewSource(int64(slots) + int64(design[1])))
			for step := 0; step < 300; step++ {
				at := fmt.Sprintf("%s step %d", label, step)
				sessions[0].PlacementInto(cs, cn)
				var moved []int
				a, b := attached[rng.Intn(len(attached))], attached[rng.Intn(len(attached))]
				if a == b {
					continue
				}
				switch rng.Intn(3) {
				case 0: // swap two attached cores
					cs[a], cs[b] = cs[b], cs[a]
					cn[a], cn[b] = cn[b], cn[a]
				case 1: // relocate both cores to random NIs
					for _, c := range []int{a, b} {
						ni := rng.Intn(numNIs)
						cs[c], cn[c] = ni/p.NIsPerSwitch, ni
					}
				case 2: // crowd both cores onto a third core's switch
					dst := attached[rng.Intn(len(attached))]
					for _, c := range []int{a, b} {
						cs[c], cn[c] = cs[dst], cs[dst]*p.NIsPerSwitch+rng.Intn(p.NIsPerSwitch)
					}
				}
				moved = []int{a, b}
				keep := rng.Intn(2) == 0
				var wantStats core.Stats
				var wantErr error
				for i, sess := range sessions {
					stats, err := sess.TryMove(cs, cn, moved...)
					if i == 0 {
						wantStats, wantErr = stats, err
						if err == core.ErrMoveInfeasible {
							rebuildRejected++
						}
					} else if !reflect.DeepEqual(err, wantErr) || !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("%s: order %d TryMove = %+v, %v; identity order %+v, %v", at, i, stats, err, wantStats, wantErr)
					}
					if err != nil {
						continue
					}
					if keep {
						sess.Keep()
					} else {
						sess.Undo()
					}
				}
				if wantErr != nil || !keep {
					continue
				}
				want := sessions[0].Result()
				for i, sess := range sessions[1:] {
					if got := sess.Result(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: order %d result differs from the identity order's", at, i+1)
					}
				}
			}
		}
	}
	t.Logf("%d moves rejected by a failed rebuild", rebuildRejected)
	if rebuildRejected == 0 {
		t.Error("no move was rejected by a failed rebuild")
	}
}
