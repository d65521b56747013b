package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// tryMoveChecked runs TryMove after asking the prechecks' oracles for their
// verdict: a move the NI precheck or the full switch scan rejects must come
// back as exactly that rejection, and any other move must pass both
// prechecks. The session's maintained cross-switch sums must match a
// recomputation afterwards, whatever the outcome.
func tryMoveChecked(t *testing.T, label string, ev *core.Evaluator, sess *core.Session, cs, cn []int, moved ...int) (core.Stats, error) {
	t.Helper()
	var want error
	if ev.ValidatePlacement(cs, cn) == nil {
		want = sess.NICapacityCheck(cn, moved)
		if want == nil {
			want = sess.SwitchCapacityScan(cs, moved)
		}
	}
	stats, err := sess.TryMove(cs, cn, moved...)
	switch {
	case want != nil && err != want:
		t.Fatalf("%s: TryMove(%v) = %v, precheck oracle %v", label, moved, err, want)
	case want == nil && (err == core.ErrNICapacity || err == core.ErrSwitchCapacity):
		t.Fatalf("%s: TryMove(%v) rejected by a precheck (%v) the oracles pass", label, moved, err)
	}
	checkCrossSums(t, label, sess)
	return stats, err
}

func checkCrossSums(t *testing.T, label string, sess *core.Session) {
	t.Helper()
	if err := sess.CrossSumsError(); err != nil {
		t.Fatalf("%s: cross-switch sums drifted: %v", label, err)
	}
}

// TestSessionCrossSumsMatchScan drives seeded move sequences on D1–D4 and,
// after every step, checks the maintained cross-switch sums against a
// from-scratch recomputation and the switch precheck's verdict against the
// full scan it replaced. The sequences must cover accepted moves, precheck
// rejections, delta wedges that fall back to a group rebuild, infeasible
// moves rolled back, Keep, Undo and Clone.
func TestSessionCrossSumsMatchScan(t *testing.T) {
	var accepted, switchRejected, rebuilt, infeasible, keeps, undos, clones int
	// D1–D4 map onto 2x2 meshes, where every switch has as many mesh
	// links as its two default NIs, so the switch bound cannot bind before
	// the NI bound does; four NIs per switch let the switch precheck reject.
	for _, run := range []struct {
		design string
		nis    int
	}{{"D1", 2}, {"D2", 2}, {"D3", 2}, {"D4", 2}, {"D1", 4}, {"D2", 4}, {"D3", 4}, {"D4", 4}} {
		design := fmt.Sprintf("%s/nis=%d", run.design, run.nis)
		d, err := bench.ByName(run.design)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := usecase.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		p := core.DefaultParams()
		p.NIsPerSwitch = run.nis
		base, err := core.Map(prep, d.NumCores(), p)
		if err != nil {
			t.Fatal(err)
		}
		m := base.Mapping
		ev, err := core.NewEvaluator(prep, d.NumCores(), m.Topology, p)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := ev.SessionFrom(base)
		if err != nil {
			t.Fatal(err)
		}
		checkCrossSums(t, design+" start", sess)
		var attached []int
		for c, sw := range m.CoreSwitch {
			if sw >= 0 {
				attached = append(attached, c)
			}
		}
		numNIs := m.Topology.NumSwitches() * p.NIsPerSwitch
		cs, cn := make([]int, d.NumCores()), make([]int, d.NumCores())
		rng := rand.New(rand.NewSource(int64(10*run.nis + int(run.design[1]-'0'))))
		for step := 0; step < 300; step++ {
			label := fmt.Sprintf("%s step %d", design, step)
			if rng.Intn(25) == 0 {
				if sess, err = sess.Clone(); err != nil {
					t.Fatalf("%s: clone: %v", label, err)
				}
				clones++
				checkCrossSums(t, label+" clone", sess)
				continue
			}
			sess.PlacementInto(cs, cn)
			var moved []int
			a := attached[rng.Intn(len(attached))]
			switch rng.Intn(3) {
			case 0: // swap two attached cores
				b := attached[rng.Intn(len(attached))]
				if a == b {
					continue
				}
				cs[a], cs[b] = cs[b], cs[a]
				cn[a], cn[b] = cn[b], cn[a]
				moved = []int{a, b}
			case 1: // relocate one core to any NI
				ni := rng.Intn(numNIs)
				cs[a], cn[a] = ni/p.NIsPerSwitch, ni
				moved = []int{a}
			case 2: // crowd two cores onto another core's switch
				b, dst := attached[rng.Intn(len(attached))], attached[rng.Intn(len(attached))]
				if a == b {
					continue
				}
				for _, c := range []int{a, b} {
					ni := cs[dst]*p.NIsPerSwitch + rng.Intn(p.NIsPerSwitch)
					cs[c], cn[c] = cs[dst], ni
				}
				moved = []int{a, b}
			}
			_, err := tryMoveChecked(t, label, ev, sess, cs, cn, moved...)
			switch {
			case err == core.ErrSwitchCapacity:
				switchRejected++
				continue
			case err == core.ErrMoveInfeasible:
				infeasible++
				continue
			case err != nil:
				continue
			}
			accepted++
			if sess.PendingRebuilds() > 0 {
				rebuilt++
			}
			if rng.Intn(2) == 0 {
				sess.Keep()
				keeps++
				checkCommitted(t, label+" keep", sess)
			} else {
				sess.Undo()
				undos++
			}
			checkCrossSums(t, label+" settle", sess)
		}
	}
	t.Logf("accepted %d (rebuilt %d), switch-precheck rejections %d, infeasible %d, keeps %d, undos %d, clones %d",
		accepted, rebuilt, switchRejected, infeasible, keeps, undos, clones)
	for name, n := range map[string]int{
		"accepted moves": accepted, "switch-precheck rejections": switchRejected,
		"group rebuilds": rebuilt, "infeasible moves": infeasible,
		"keeps": keeps, "undos": undos, "clones": clones,
	} {
		if n == 0 {
			t.Errorf("the move sequences never produced %s", name)
		}
	}
}
