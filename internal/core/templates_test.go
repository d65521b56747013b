package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
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

// flowOrderReference is the comparator newTemplates once sorted whole
// flowInsts with: descending bandwidth, then ascending pair, then
// ascending use-case.
func flowOrderReference(a, b flowInst) int {
	if a.bw != b.bw {
		if a.bw > b.bw {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.key.Src, b.key.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.key.Dst, b.key.Dst); c != 0 {
		return c
	}
	return cmp.Compare(a.uc, b.uc)
}

// wideDesign is a random design on more than 64 cores (the pair-rank path
// of newTemplates) whose bandwidths repeat, so the flow sort meets ties,
// with a parallel set for a compound use-case.
func wideDesign(t *testing.T) *traffic.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	d := &traffic.Design{Name: "wide", Cores: traffic.MakeCores(100), ParallelSets: [][]int{{0, 1}}}
	for uc := 0; uc < 3; uc++ {
		u := &traffic.UseCase{Name: fmt.Sprint("u", uc)}
		seen := map[traffic.PairKey]bool{}
		for len(u.Flows) < 150 {
			k := traffic.PairKey{Src: traffic.CoreID(rng.Intn(100)), Dst: traffic.CoreID(rng.Intn(100))}
			if k.Src == k.Dst || seen[k] {
				continue
			}
			seen[k] = true
			u.Flows = append(u.Flows, traffic.Flow{Src: k.Src, Dst: k.Dst, BandwidthMBs: float64(1 + rng.Intn(8))})
		}
		d.UseCases = append(d.UseCases, u)
	}
	return d
}

// TestTemplatesFlowOrder: the two-pass sort of newTemplates yields the
// flow list a stable sort of whole flow instances under the reference
// comparator yields, and the dense pair indices number the pairs in first
// occurrence order, on the SoC designs, both synthetic classes and a
// design past 64 cores.
func TestTemplatesFlowOrder(t *testing.T) {
	designs := map[string]*traffic.Design{"wide": wideDesign(t)}
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		designs[name] = d
	}
	for _, c := range []bench.Class{bench.Spread, bench.Bottleneck} {
		d, err := bench.Synthetic(c.SpecFor(40, 7))
		if err != nil {
			t.Fatal(err)
		}
		designs[c.String()] = d
	}
	for name, d := range designs {
		pr, err := usecase.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		var want []flowInst
		for uc, u := range pr.UseCases {
			for idx, f := range u.Flows {
				want = append(want, flowInst{uc: uc, idx: idx, bw: f.BandwidthMBs, lat: f.MaxLatencyNS, key: f.Key()})
			}
		}
		slices.SortStableFunc(want, flowOrderReference)
		tpl := newTemplates(pr, d.NumCores(), DefaultParams())
		got := tpl.flowsTpl
		if len(got) != len(want) {
			t.Fatalf("%s: %d flows, want %d", name, len(got), len(want))
		}
		index := map[traffic.PairKey]int32{}
		for i := range want {
			pi, ok := index[want[i].key]
			if !ok {
				pi = int32(len(index))
				index[want[i].key] = pi
			}
			want[i].pair = pi
			if got[i] != want[i] {
				t.Fatalf("%s: flow %d is %+v, want %+v", name, i, got[i], want[i])
			}
			if tpl.pairList[pi] != want[i].key || tpl.ucPairIdx[want[i].uc][want[i].idx] != pi {
				t.Fatalf("%s: pair %d (%v) misfiled", name, pi, want[i].key)
			}
		}
		if len(tpl.pairList) != len(index) {
			t.Fatalf("%s: %d pairs, want %d", name, len(tpl.pairList), len(index))
		}
	}
}
