package core

import (
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// TestMapSharesTemplatesAcrossFabrics: the growth loop builds the design's
// flow templates once and derives every fabric's evaluator from them.
func TestMapSharesTemplatesAcrossFabrics(t *testing.T) {
	d, err := bench.D3() // fails on 1x3, maps on 2x2
	if err != nil {
		t.Fatal(err)
	}
	pr, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	var evs []*Evaluator
	fabricHook = func(ev *Evaluator) { evs = append(evs, ev) }
	defer func() { fabricHook = nil }()
	if _, err := Map(pr, d.NumCores(), DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 2 {
		t.Fatalf("growth loop tried %d fabrics, want at least 2", len(evs))
	}
	for i, ev := range evs[1:] {
		if ev.templates != evs[0].templates {
			t.Errorf("fabric %d (%s) rebuilt the templates", i+1, ev.top)
		}
		if ev.top == evs[0].top || ev.paths == evs[0].paths {
			t.Errorf("fabric %d (%s) shares the first fabric's topology tables", i+1, ev.top)
		}
	}
}

// TestEvaluatorOnSharesTemplates: On derives an evaluator for another
// fabric over the same templates, and it scores placements exactly like a
// freshly constructed one.
func TestEvaluatorOnSharesTemplates(t *testing.T) {
	d, err := bench.D1()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	res := mustMap(t, pr, d.NumCores(), p)
	small, err := topology.NewMesh(1, 3, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(pr, d.NumCores(), small, p)
	if err != nil {
		t.Fatal(err)
	}
	on, err := ev.On(res.Mapping.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if on.templates != ev.templates {
		t.Error("On rebuilt the templates")
	}
	if _, err := ev.On(nil); err == nil {
		t.Error("On(nil) accepted")
	}
	fresh, err := NewEvaluator(pr, d.NumCores(), res.Mapping.Topology, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := on.Evaluate(res.Mapping.CoreSwitch, res.Mapping.CoreNI)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Evaluate(res.Mapping.CoreSwitch, res.Mapping.CoreNI)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Errorf("derived evaluator stats %+v, fresh %+v", got.Stats, want.Stats)
	}
}
