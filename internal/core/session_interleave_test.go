// Regression tests for Keep/Undo sequencing across cloned sessions — the
// audit of the speculative batch protocol: several clones of one session
// try moves concurrently-in-spirit (here in a deterministic interleaving),
// one winner Keeps, the losers Undo, and a failed TryMove in the middle of
// a batch must leave its session byte-equivalent to never having tried.
// Every committed state is cross-checked against core.EvaluateFresh, the
// from-scratch oracle.
package core_test

import (
	"math/rand"
	"testing"

	"nocmap/internal/core"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// sessionOracle cross-checks a session's committed stats against a
// from-scratch evaluation of its current placement.
func sessionOracle(t *testing.T, label string, fx *evalFixture, sess *core.Session) {
	t.Helper()
	cs, cn := placementOf(sess, fx.numCores)
	want, err := core.EvaluateFresh(fx.prep, fx.numCores, fx.top, cs, cn, fx.p)
	if err != nil {
		t.Fatalf("%s: oracle rejects the session's own placement: %v", label, err)
	}
	if got := sess.Stats(); got != want.Stats {
		t.Fatalf("%s: session stats %+v diverge from a fresh evaluation %+v", label, got, want.Stats)
	}
}

// evalFixture carries what the oracle needs alongside the session factory.
type evalFixture struct {
	prep     *usecase.Prepared
	numCores int
	top      *topology.Topology
	p        core.Params
	base     *core.Result
	ev       *core.Evaluator
}

func newEvalFixture(t *testing.T) *evalFixture {
	t.Helper()
	prep, n := evalDesign(t)
	p := core.DefaultParams()
	base, err := core.Map(prep, n, p)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(prep, n, base.Mapping.Topology, p)
	if err != nil {
		t.Fatal(err)
	}
	return &evalFixture{prep: prep, numCores: n, top: base.Mapping.Topology, p: p, base: base, ev: ev}
}

// swapCandidates enumerates the cross-NI swaps of the base placement.
func swapCandidates(base *core.Result) [][2]int {
	m := base.Mapping
	var attached []int
	for c, s := range m.CoreSwitch {
		if s >= 0 {
			attached = append(attached, c)
		}
	}
	var out [][2]int
	for i, x := range attached {
		for _, y := range attached[i+1:] {
			if m.CoreNI[x] != m.CoreNI[y] {
				out = append(out, [2]int{x, y})
			}
		}
	}
	return out
}

// placementOf returns copies of the session's current placement.
func placementOf(sess *core.Session, numCores int) (cs, cn []int) {
	cs, cn = make([]int, numCores), make([]int, numCores)
	sess.PlacementInto(cs, cn)
	return cs, cn
}

// applySwap produces the placement with cores x and y exchanged.
func applySwap(fx *evalFixture, sess *core.Session, x, y int) (cs, cn []int) {
	cs, cn = placementOf(sess, fx.numCores)
	cs[x], cs[y] = cs[y], cs[x]
	cn[x], cn[y] = cn[y], cn[x]
	return cs, cn
}

// TestSessionCloneInterleavedKeepUndo replays the speculative batch
// protocol deterministically: per round, every cloned session tries the
// same batch of candidates (one each), exactly one Keeps and the others
// Undo, then the losers replay the winner's move so the cohort stays in
// lockstep. After every round each session's stats must match the
// from-scratch oracle of its own placement, and the whole cohort must
// agree with each other.
func TestSessionCloneInterleavedKeepUndo(t *testing.T) {
	fx := newEvalFixture(t)
	root, err := fx.ev.SessionFrom(fx.base)
	if err != nil {
		t.Fatal(err)
	}
	cands := swapCandidates(fx.base)
	if len(cands) < 3 {
		t.Fatalf("fixture has only %d swap candidates", len(cands))
	}
	const workers = 3
	sessions := []*core.Session{root}
	for i := 1; i < workers; i++ {
		c, err := root.Clone()
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, c)
	}

	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 12; round++ {
		type attempt struct {
			ok   bool
			x, y int
		}
		attempts := make([]attempt, workers)
		for w, sess := range sessions {
			mv := cands[rng.Intn(len(cands))]
			cs, cn := applySwap(fx, sess, mv[0], mv[1])
			if _, err := sess.TryMove(cs, cn, mv[0], mv[1]); err == nil {
				attempts[w] = attempt{ok: true, x: mv[0], y: mv[1]}
			}
		}
		// Deterministic winner: the lowest-indexed session with a pending
		// move; rounds where nothing succeeded just roll everything back.
		winner := -1
		for w, a := range attempts {
			if a.ok {
				winner = w
				break
			}
		}
		for w := len(sessions) - 1; w >= 0; w-- {
			sess := sessions[w]
			switch {
			case w == winner:
				sess.Keep()
			case attempts[w].ok:
				sess.Undo()
			}
		}
		if winner >= 0 {
			// Losers replay the winner's committed placement.
			wcs, wcn := placementOf(sessions[winner], fx.numCores)
			for w, sess := range sessions {
				if w == winner {
					continue
				}
				if _, err := sess.TryMove(wcs, wcn, attempts[winner].x, attempts[winner].y); err != nil {
					t.Fatalf("round %d: session %d cannot replay the winner's move: %v", round, w, err)
				}
				sess.Keep()
			}
		}
		for w, sess := range sessions {
			sessionOracle(t, labelOf(round, w), fx, sess)
		}
		s0 := sessions[0].Stats()
		for w, sess := range sessions[1:] {
			if sess.Stats() != s0 {
				t.Fatalf("round %d: session %d diverged from session 0: %+v vs %+v",
					round, w+1, sess.Stats(), s0)
			}
		}
	}
}

func labelOf(round, w int) string {
	return "round " + itoa(round) + " session " + itoa(w)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestSessionUndoAfterFailedTryMove is the regression test for the batch
// audit: a TryMove that fails (validation error or infeasible re-route)
// must leave the session with no pending move, an Undo right after it must
// be a no-op, and the session must remain fully usable — further moves
// evaluate against the unchanged configuration and still match the oracle.
func TestSessionUndoAfterFailedTryMove(t *testing.T) {
	fx := newEvalFixture(t)
	sess, err := fx.ev.SessionFrom(fx.base)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Stats()
	csBase, cnBase := placementOf(sess, fx.numCores)

	// Failure 1: a placement that moves a core without listing it.
	cands := swapCandidates(fx.base)
	mv := cands[0]
	cs, cn := applySwap(fx, sess, mv[0], mv[1])
	if _, err := sess.TryMove(cs, cn); err == nil {
		t.Fatal("TryMove with an unlisted moved core succeeded")
	}
	sess.Undo() // must be a no-op, not a rollback of a phantom move
	if got := sess.Stats(); got != before {
		t.Fatalf("stats changed across failed TryMove + Undo: %+v vs %+v", got, before)
	}

	// Failure 2: an out-of-range moved index.
	if _, err := sess.TryMove(cs, cn, -1); err == nil {
		t.Fatal("TryMove with an out-of-range moved core succeeded")
	}
	sess.Undo()

	// The placement must be untouched by either failure.
	csNow, cnNow := placementOf(sess, fx.numCores)
	for c := range csBase {
		if csNow[c] != csBase[c] || cnNow[c] != cnBase[c] {
			t.Fatalf("failed TryMove moved core %d", c)
		}
	}

	// The session still evaluates correctly after the failures, including
	// inside a batch shape: try, keep, cross-check.
	if _, err := sess.TryMove(cs, cn, mv[0], mv[1]); err != nil {
		t.Fatalf("session unusable after failed TryMove: %v", err)
	}
	sess.Keep()
	sessionOracle(t, "post-failure keep", fx, sess)

	// And a double Undo around a pending move stays exact: the second is a
	// no-op.
	mv2 := cands[1]
	cs2, cn2 := applySwap(fx, sess, mv2[0], mv2[1])
	if _, err := sess.TryMove(cs2, cn2, mv2[0], mv2[1]); err == nil {
		committed := sess.Stats()
		sess.Undo()
		sess.Undo()
		if got := sess.Stats(); got != committed {
			t.Fatalf("double Undo corrupted stats: %+v vs %+v", got, committed)
		}
		sessionOracle(t, "double undo", fx, sess)
	}
}
