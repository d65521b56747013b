// Equivalence and regression tests for the incremental evaluation engine,
// written against the public API (external test package so the analytic
// verifier can be imported without a cycle).
package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nocmap/internal/core"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
)

// evalDesign is a three-use-case, eight-core design with one shared pair
// and a latency-bound flow — enough structure to exercise group ordering,
// slot escalation and multi-candidate routing.
func evalDesign(t *testing.T) (*usecase.Prepared, int) {
	t.Helper()
	d := &traffic.Design{
		Name:  "eval-eq",
		Cores: traffic.MakeCores(8),
		UseCases: []*traffic.UseCase{
			{Name: "u0", Flows: []traffic.Flow{
				{Src: 0, Dst: 1, BandwidthMBs: 400},
				{Src: 1, Dst: 2, BandwidthMBs: 220},
				{Src: 2, Dst: 3, BandwidthMBs: 90, MaxLatencyNS: 900},
				{Src: 4, Dst: 5, BandwidthMBs: 150},
			}},
			{Name: "u1", Flows: []traffic.Flow{
				{Src: 0, Dst: 1, BandwidthMBs: 180},
				{Src: 5, Dst: 6, BandwidthMBs: 240},
				{Src: 6, Dst: 7, BandwidthMBs: 60},
			}},
			{Name: "u2", Flows: []traffic.Flow{
				{Src: 3, Dst: 0, BandwidthMBs: 120},
				{Src: 7, Dst: 4, BandwidthMBs: 200},
			}},
		},
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	return prep, d.NumCores()
}

func evalParams() core.Params {
	p := core.DefaultParams()
	p.NIsPerSwitch = 1
	p.CoresPerNI = 2
	return p
}

// randomPlacement seats every core on a random NI seat of the topology.
func randomPlacement(rng *rand.Rand, top *topology.Topology, p core.Params, numCores int) (cs, cn []int) {
	numNIs := top.NumSwitches() * p.NIsPerSwitch
	var seats []int
	for ni := 0; ni < numNIs; ni++ {
		for k := 0; k < p.CoresPerNI; k++ {
			seats = append(seats, ni)
		}
	}
	rng.Shuffle(len(seats), func(i, j int) { seats[i], seats[j] = seats[j], seats[i] })
	cs = make([]int, numCores)
	cn = make([]int, numCores)
	for c := 0; c < numCores; c++ {
		cn[c] = seats[c]
		cs[c] = seats[c] / p.NIsPerSwitch
	}
	return cs, cn
}

func sameResult(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, a.Stats, b.Stats)
	}
	for c := range a.Mapping.CoreSwitch {
		if a.Mapping.CoreSwitch[c] != b.Mapping.CoreSwitch[c] || a.Mapping.CoreNI[c] != b.Mapping.CoreNI[c] {
			t.Fatalf("%s: placements differ at core %d", label, c)
		}
	}
	for uc := range a.Mapping.Configs {
		ca, cb := a.Mapping.Configs[uc].Assignments, b.Mapping.Configs[uc].Assignments
		if len(ca) != len(cb) {
			t.Fatalf("%s: use-case %d has %d vs %d assignments", label, uc, len(ca), len(cb))
		}
		for key, aa := range ca {
			bb, ok := cb[key]
			if !ok {
				t.Fatalf("%s: use-case %d missing pair %v", label, uc, key)
			}
			if aa.SlotCount != bb.SlotCount || len(aa.Path) != len(bb.Path) || len(aa.Starts) != len(bb.Starts) {
				t.Fatalf("%s: use-case %d pair %v: assignments differ in shape", label, uc, key)
			}
			for i := range aa.Path {
				if aa.Path[i] != bb.Path[i] {
					t.Fatalf("%s: use-case %d pair %v: paths differ", label, uc, key)
				}
			}
			for i := range aa.Starts {
				if aa.Starts[i] != bb.Starts[i] {
					t.Fatalf("%s: use-case %d pair %v: starts differ", label, uc, key)
				}
			}
		}
	}
}

// TestEvaluatorMatchesEvaluateFixed: one shared Evaluator (pooled scratch,
// cached path tables) must produce bit-identical Results to a fresh
// Evaluator per call (core.EvaluateFresh) on randomized placements, across
// mesh, torus and custom fabrics, with infeasible placements interleaved so
// the arena is also proven clean after failed evaluations.
func TestEvaluatorMatchesEvaluateFixed(t *testing.T) {
	prep, numCores := evalDesign(t)
	p := evalParams()

	mesh, err := topology.NewMesh(3, 3, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.NewTorus(3, 3, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	ring := &topology.Custom{Name: "ring6", Switches: 6,
		Links: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}}
	customTop, err := ring.Build(p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}

	evaluated := 0
	for _, top := range []*topology.Topology{mesh, torus, customTop} {
		ev, err := core.NewEvaluator(prep, numCores, top, p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		feasible := 0
		for trial := 0; trial < 25; trial++ {
			cs, cn := randomPlacement(rng, top, p, numCores)
			label := fmt.Sprintf("%s trial %d", top, trial)
			got, gotErr := ev.Evaluate(cs, cn)
			want, wantErr := core.EvaluateFresh(prep, numCores, top, cs, cn, p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: feasibility diverged: shared err=%v, fresh err=%v", label, gotErr, wantErr)
			}
			evaluated++
			if gotErr != nil {
				continue
			}
			feasible++
			sameResult(t, label, got, want)
			if vs := verify.Check(got.Mapping); len(vs) != 0 {
				t.Fatalf("%s: %d verification violations, first: %v", label, len(vs), vs[0])
			}
		}
		if feasible == 0 {
			t.Errorf("%s: no feasible random placement in 25 trials; equivalence untested", top)
		}
	}
	if evaluated < 50 {
		t.Fatalf("only %d placements compared, want >= 50", evaluated)
	}
}

// TestEvaluateFixedValidatesPlacement: nil, short, out-of-range,
// wrong-switch and overfull placements from a custom engine must surface as
// errors from a fresh Evaluator and from a shared one, never as panics deep
// in the configuration phase.
func TestEvaluateFixedValidatesPlacement(t *testing.T) {
	prep, numCores := evalDesign(t)
	p := evalParams()
	top, err := topology.NewMesh(3, 3, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(prep, numCores, top, p)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]int, numCores)
	goodNI := make([]int, numCores)
	for c := 0; c < numCores; c++ {
		good[c] = c % top.NumSwitches()
		goodNI[c] = good[c] * p.NIsPerSwitch
	}
	overfull := func() ([]int, []int) {
		cs := make([]int, numCores)
		cn := make([]int, numCores)
		for c := range cs {
			cs[c], cn[c] = 0, 0 // every core on NI 0: capacity is CoresPerNI=2
		}
		return cs, cn
	}
	cases := []struct {
		name   string
		cs, cn []int
	}{
		{"nil switch slice", nil, goodNI},
		{"nil NI slice", good, nil},
		{"short switch slice", good[:numCores-1], goodNI},
		{"switch out of range", replace(good, 0, top.NumSwitches()), goodNI},
		{"NI out of range", good, replace(goodNI, 0, top.NumSwitches()*p.NIsPerSwitch)},
		{"NI on wrong switch", good, replace(goodNI, 0, goodNI[1]+p.NIsPerSwitch)},
	}
	ocs, ocn := overfull()
	cases = append(cases, struct {
		name   string
		cs, cn []int
	}{"overfull NI", ocs, ocn})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			if _, err := core.EvaluateFresh(prep, numCores, top, tc.cs, tc.cn, p); err == nil {
				t.Errorf("fresh Evaluator accepted %s", tc.name)
			}
			if _, err := ev.Evaluate(tc.cs, tc.cn); err == nil {
				t.Errorf("Evaluator.Evaluate accepted %s", tc.name)
			}
			if _, err := ev.NewSession(tc.cs, tc.cn); err == nil {
				t.Errorf("NewSession accepted %s", tc.name)
			}
		})
	}
}

func replace(s []int, i, v int) []int {
	out := append([]int(nil), s...)
	if i < len(out) {
		out[i] = v
	}
	return out
}

// TestSessionMovesStayVerifiedAndUndoRestores drives a session through a
// random move sequence: every kept configuration must pass the full
// analytic verification with statistics matching what TryMove reported,
// and every undone move must restore the previous configuration exactly.
func TestSessionMovesStayVerifiedAndUndoRestores(t *testing.T) {
	prep, numCores := evalDesign(t)
	p := evalParams()
	top, err := topology.NewMesh(3, 3, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(prep, numCores, top, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var sess *core.Session
	for trial := 0; trial < 50 && sess == nil; trial++ {
		cs, cn := randomPlacement(rng, top, p, numCores)
		if s, err := ev.NewSession(cs, cn); err == nil {
			sess = s
		}
	}
	if sess == nil {
		t.Fatal("no feasible start found for the session")
	}
	moves, kept := 0, 0
	for it := 0; it < 200; it++ {
		before := sess.Result()
		cs, cn := sess.Placement()
		x, y := rng.Intn(numCores), rng.Intn(numCores)
		if x == y || cn[x] == cn[y] {
			continue
		}
		cs[x], cs[y] = cs[y], cs[x]
		cn[x], cn[y] = cn[y], cn[x]
		stats, err := sess.TryMove(cs, cn, x, y)
		if err != nil {
			// Infeasible: the session must be untouched.
			sameResult(t, fmt.Sprintf("it %d (infeasible move)", it), sess.Result(), before)
			continue
		}
		moves++
		if rng.Float64() < 0.5 {
			sess.Keep()
			kept++
			res := sess.Result()
			if res.Stats != stats {
				t.Fatalf("it %d: TryMove stats %+v, committed result stats %+v", it, stats, res.Stats)
			}
			if vs := verify.Check(res.Mapping); len(vs) != 0 {
				t.Fatalf("it %d: kept move violates invariants: %v", it, vs[0])
			}
		} else {
			sess.Undo()
			sameResult(t, fmt.Sprintf("it %d (undo)", it), sess.Result(), before)
		}
	}
	if moves == 0 || kept == 0 {
		t.Fatalf("move sequence exercised nothing (moves=%d kept=%d)", moves, kept)
	}
}

// TestSessionRejectsUnlistedMoves: a placement that changes seats of cores
// not listed as moved must be rejected — silently re-routing only part of
// the change would corrupt the configuration.
func TestSessionRejectsUnlistedMoves(t *testing.T) {
	prep, numCores := evalDesign(t)
	p := evalParams()
	top, err := topology.NewMesh(3, 3, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(prep, numCores, top, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sess *core.Session
	for trial := 0; trial < 50 && sess == nil; trial++ {
		cs, cn := randomPlacement(rng, top, p, numCores)
		if s, err := ev.NewSession(cs, cn); err == nil {
			sess = s
		}
	}
	if sess == nil {
		t.Fatal("no feasible start found")
	}
	cs, cn := sess.Placement()
	x, y := 0, 1
	for cn[x] == cn[y] {
		y++
	}
	cs[x], cs[y] = cs[y], cs[x]
	cn[x], cn[y] = cn[y], cn[x]
	if _, err := sess.TryMove(cs, cn, x); err == nil {
		t.Error("TryMove accepted a swap that listed only one moved core")
	}
}
