package core

import (
	"errors"
	"strings"
	"testing"

	"nocmap/internal/tdma"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// prep builds a Prepared from a bare design (no parallel/smooth specs).
func prep(t *testing.T, numCores int, ucs ...*traffic.UseCase) *usecase.Prepared {
	t.Helper()
	d := &traffic.Design{Name: "t", Cores: traffic.MakeCores(numCores), UseCases: ucs}
	p, err := usecase.Prepare(d)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

func mustMap(t *testing.T, pr *usecase.Prepared, numCores int, p Params) *Result {
	t.Helper()
	res, err := Map(pr, numCores, p)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return res
}

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	if got := p.LinkBandwidthMBs(); got != 2000 {
		t.Errorf("link bandwidth = %v, want 2000 (32-bit @ 500 MHz)", got)
	}
	if got := p.SlotBandwidthMBs(); got != 31.25 {
		t.Errorf("slot bandwidth = %v, want 31.25", got)
	}
	if got := p.CoresPerSwitch(); got != 8 {
		t.Errorf("cores per switch = %d, want 8", got)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	mut := []func(*Params){
		func(p *Params) { p.LinkWidthBits = 0 },
		func(p *Params) { p.FreqMHz = -1 },
		func(p *Params) { p.SlotTableSize = 1 },
		func(p *Params) { p.SlotCycles = 0 },
		func(p *Params) { p.NIsPerSwitch = 0 },
		func(p *Params) { p.CoresPerNI = -1 },
		func(p *Params) { p.MaxMeshDim = 0 },
	}
	for i, f := range mut {
		p := DefaultParams()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestLatencyBudgetSlots(t *testing.T) {
	p := DefaultParams() // 500 MHz, 3 cycles/slot: 1 slot = 6 ns
	if got := p.LatencyBudgetSlots(600); got != 100 {
		t.Errorf("budget(600ns) = %d, want 100", got)
	}
	if got := p.LatencyBudgetSlots(0); got >= 0 {
		t.Errorf("unconstrained budget = %d, want negative", got)
	}
}

func TestMapSingleFlow(t *testing.T) {
	u := &traffic.UseCase{Name: "u", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 100}}}
	res := mustMap(t, prep(t, 2, u), 2, DefaultParams())
	if res.Mapping.SwitchCount() != 1 {
		t.Errorf("switches = %d, want 1 (two cores fit one switch)", res.Mapping.SwitchCount())
	}
	a := res.Mapping.Configs[0].Assignments[traffic.PairKey{Src: 0, Dst: 1}]
	if a == nil {
		t.Fatal("missing assignment")
	}
	// 100 MB/s at 31.25 MB/s per slot -> 4 slots.
	if a.SlotCount != 4 {
		t.Errorf("slots = %d, want 4", a.SlotCount)
	}
	// Same switch: path = NI egress + NI ingress only.
	if len(a.Path) != 2 {
		t.Errorf("path = %v, want 2 NI links only", a.Path)
	}
	if res.Stats.SlotsReserved == 0 || res.Stats.MaxLinkUtil <= 0 {
		t.Errorf("stats not computed: %+v", res.Stats)
	}
}

// TestExample1Fig5 reproduces Example 1 / Figure 5 of the paper: two
// use-cases over cores C1..C4. The largest flow (C3->C4, 100 MB/s in
// use-case 1) is mapped first; the same pair in use-case 2 (42 MB/s) then
// gets its own path and reservation in its own residual state, while both
// use-cases share one placement of the cores.
func TestExample1Fig5(t *testing.T) {
	u1 := &traffic.UseCase{Name: "uc1", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 10},
		{Src: 1, Dst: 2, BandwidthMBs: 75},
		{Src: 2, Dst: 3, BandwidthMBs: 100},
	}}
	u2 := &traffic.UseCase{Name: "uc2", Flows: []traffic.Flow{
		{Src: 2, Dst: 3, BandwidthMBs: 42},
		{Src: 0, Dst: 2, BandwidthMBs: 11},
		{Src: 1, Dst: 3, BandwidthMBs: 52},
	}}
	pr := prep(t, 4, u1, u2)
	res := mustMap(t, pr, 4, DefaultParams())
	m := res.Mapping

	// Shared placement: every core attached exactly once, same for both UCs
	// (there is only one CoreSwitch array by construction; assert all 4 are
	// attached).
	for c := 0; c < 4; c++ {
		if m.CoreSwitch[c] < 0 {
			t.Errorf("core %d not attached", c)
		}
	}
	key := traffic.PairKey{Src: 2, Dst: 3}
	a1 := m.Configs[0].Assignments[key]
	a2 := m.Configs[1].Assignments[key]
	if a1 == nil || a2 == nil {
		t.Fatal("missing assignments for C3->C4")
	}
	if a1 == a2 {
		t.Error("use-cases are not grouped; assignments must be independent")
	}
	// Separate residual accounting: slot counts reflect each use-case's own
	// bandwidth (100 -> 4 slots, 42 -> 2 slots at 31.25 MB/s per slot).
	if a1.SlotCount != 4 || a2.SlotCount != 2 {
		t.Errorf("slot counts = %d,%d, want 4,2", a1.SlotCount, a2.SlotCount)
	}
}

func TestMapGrowsWithCoreCount(t *testing.T) {
	// 20 communicating cores need >= ceil(20/8) = 3 switches.
	var flows []traffic.Flow
	for i := 0; i < 19; i++ {
		flows = append(flows, traffic.Flow{Src: traffic.CoreID(i), Dst: traffic.CoreID(i + 1), BandwidthMBs: 10})
	}
	u := &traffic.UseCase{Name: "chain", Flows: flows}
	res := mustMap(t, prep(t, 20, u), 20, DefaultParams())
	if got := res.Mapping.SwitchCount(); got < 3 {
		t.Errorf("switches = %d, want >= 3", got)
	}
	// The first attempts (1x1, 1x2) must be skipped on capacity.
	if !res.Attempts[0].Skipped || !res.Attempts[1].Skipped {
		t.Errorf("capacity skips not recorded: %+v", res.Attempts[:2])
	}
}

func TestMapGrowsWithBandwidth(t *testing.T) {
	// 8 cores fit one switch, but their aggregate NI egress demand exceeds
	// one switch's 2 NIs x 2000 MB/s, forcing a larger mesh.
	var flows []traffic.Flow
	for i := 0; i < 8; i += 2 {
		flows = append(flows,
			traffic.Flow{Src: traffic.CoreID(i), Dst: traffic.CoreID(i + 1), BandwidthMBs: 1500},
			traffic.Flow{Src: traffic.CoreID(i + 1), Dst: traffic.CoreID(i), BandwidthMBs: 1500})
	}
	u := &traffic.UseCase{Name: "hot", Flows: flows}
	res := mustMap(t, prep(t, 8, u), 8, DefaultParams())
	if got := res.Mapping.SwitchCount(); got < 2 {
		t.Errorf("switches = %d, want >= 2 (NI bandwidth bound)", got)
	}
}

func TestMapPerUseCaseStatesScale(t *testing.T) {
	// Ten use-cases each loading the same pair at near link capacity: with
	// separate residual state per use-case this still fits a single switch.
	var ucs []*traffic.UseCase
	for i := 0; i < 10; i++ {
		ucs = append(ucs, &traffic.UseCase{
			Name:  "u" + string(rune('0'+i)),
			Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 1800}},
		})
	}
	res := mustMap(t, prep(t, 2, ucs...), 2, DefaultParams())
	if got := res.Mapping.SwitchCount(); got != 1 {
		t.Errorf("switches = %d, want 1 — per-use-case states must not accumulate", got)
	}
}

func TestMapInfeasibleBandwidth(t *testing.T) {
	u := &traffic.UseCase{Name: "u", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 5000}}}
	p := DefaultParams()
	p.MaxMeshDim = 3
	_, err := Map(prep(t, 2, u), 2, p)
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want InfeasibleError", err)
	}
	if inf.MaxDim != 3 || len(inf.Attempts) == 0 {
		t.Errorf("InfeasibleError = %+v", inf)
	}
	if !strings.Contains(err.Error(), "no feasible mapping") {
		t.Errorf("error text = %q", err)
	}
}

func TestMapLatencyEscalatesSlots(t *testing.T) {
	// 40 MB/s needs only 2 slots, but a 150 ns budget (25 slots at 6 ns)
	// with a short path forces a small slot gap -> more slots.
	u := &traffic.UseCase{Name: "u", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 40, MaxLatencyNS: 150},
	}}
	res := mustMap(t, prep(t, 2, u), 2, DefaultParams())
	a := res.Mapping.Configs[0].Assignments[traffic.PairKey{Src: 0, Dst: 1}]
	if a.SlotCount <= 2 {
		t.Errorf("slots = %d, want > 2 (latency-driven escalation)", a.SlotCount)
	}
	wc := tdma.WorstCaseLatencySlots(a.Starts, len(a.Path), DefaultParams().SlotTableSize)
	if budget := DefaultParams().LatencyBudgetSlots(150); wc > budget {
		t.Errorf("worst case %d slots exceeds budget %d", wc, budget)
	}
}

func TestMapImpossibleLatency(t *testing.T) {
	u := &traffic.UseCase{Name: "u", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 40, MaxLatencyNS: 1}, // < 1 slot
	}}
	p := DefaultParams()
	p.MaxMeshDim = 2
	if _, err := Map(prep(t, 2, u), 2, p); err == nil {
		t.Error("impossible latency accepted")
	}
}

func TestMapDeterministic(t *testing.T) {
	u1 := &traffic.UseCase{Name: "a", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 300}, {Src: 2, Dst: 3, BandwidthMBs: 200},
		{Src: 4, Dst: 5, BandwidthMBs: 100}, {Src: 1, Dst: 4, BandwidthMBs: 250},
	}}
	u2 := &traffic.UseCase{Name: "b", Flows: []traffic.Flow{
		{Src: 5, Dst: 0, BandwidthMBs: 400}, {Src: 3, Dst: 2, BandwidthMBs: 150},
	}}
	r1 := mustMap(t, prep(t, 6, u1, u2), 6, DefaultParams())
	r2 := mustMap(t, prep(t, 6, u1, u2), 6, DefaultParams())
	for c := 0; c < 6; c++ {
		if r1.Mapping.CoreSwitch[c] != r2.Mapping.CoreSwitch[c] || r1.Mapping.CoreNI[c] != r2.Mapping.CoreNI[c] {
			t.Fatalf("placement of core %d differs between runs", c)
		}
	}
	if r1.Mapping.SwitchCount() != r2.Mapping.SwitchCount() {
		t.Error("topology differs between runs")
	}
}

func TestGroupSharedAssignments(t *testing.T) {
	u1 := &traffic.UseCase{Name: "a", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 100}}}
	u2 := &traffic.UseCase{Name: "b", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 40}}}
	u3 := &traffic.UseCase{Name: "c", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 70}}}
	d := &traffic.Design{
		Name:        "g",
		Cores:       traffic.MakeCores(2),
		UseCases:    []*traffic.UseCase{u1, u2, u3},
		SmoothPairs: [][2]int{{0, 1}}, // a,b share a configuration; c is alone
	}
	pr, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	res := mustMap(t, pr, 2, DefaultParams())
	key := traffic.PairKey{Src: 0, Dst: 1}
	aa := res.Mapping.Configs[0].Assignments[key]
	ab := res.Mapping.Configs[1].Assignments[key]
	ac := res.Mapping.Configs[2].Assignments[key]
	if aa != ab {
		t.Error("grouped use-cases must share the assignment")
	}
	if ac == aa {
		t.Error("ungrouped use-case must have its own assignment")
	}
	// Shared assignment sized by the group max (100 -> 4 slots), not b's 40.
	if aa.SlotCount != 4 {
		t.Errorf("group slots = %d, want 4", aa.SlotCount)
	}
	if ac.SlotCount != 3 {
		t.Errorf("solo slots = %d, want 3 (70 MB/s)", ac.SlotCount)
	}
}

func TestConfigureFixedRoundTrip(t *testing.T) {
	u := &traffic.UseCase{Name: "u", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 500}, {Src: 1, Dst: 2, BandwidthMBs: 300},
	}}
	pr := prep(t, 3, u)
	res := mustMap(t, pr, 3, DefaultParams())
	m := res.Mapping
	// Same frequency: must succeed again on the fixed placement.
	again, err := EvaluateFresh(pr, 3, m.Topology, m.CoreSwitch, m.CoreNI, m.Params)
	if err != nil {
		t.Fatalf("re-configuration at the same freq: %v", err)
	}
	if again.Mapping.SwitchCount() != m.SwitchCount() {
		t.Error("topology changed under fixed placement")
	}
	// Far lower frequency: per-slot bandwidth shrinks 20x, must fail.
	if _, err := EvaluateFresh(pr, 3, m.Topology, m.CoreSwitch, m.CoreNI, m.Params.WithFrequency(25)); err == nil {
		t.Error("re-configuration at 25 MHz should fail")
	}
}

func TestConfigureFixedRejectsBadPlacement(t *testing.T) {
	u := &traffic.UseCase{Name: "u", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 10}}}
	pr := prep(t, 2, u)
	res := mustMap(t, pr, 2, DefaultParams())
	m := res.Mapping
	bad := []int{99, 0}
	if _, err := EvaluateFresh(pr, 2, m.Topology, bad, m.CoreNI, m.Params); err == nil {
		t.Error("invalid fixed placement accepted")
	}
	if _, err := EvaluateFresh(pr, 2, m.Topology, m.CoreSwitch[:1], m.CoreNI, m.Params); err == nil {
		t.Error("short fixed placement accepted")
	}
}

func TestMapRejectsBadInput(t *testing.T) {
	if _, err := Map(nil, 2, DefaultParams()); err == nil {
		t.Error("nil prep accepted")
	}
	u := &traffic.UseCase{Name: "u", Flows: []traffic.Flow{{Src: 0, Dst: 9, BandwidthMBs: 10}}}
	pr := usecase.Single(u)
	if _, err := Map(pr, 2, DefaultParams()); err == nil {
		t.Error("out-of-range flow accepted")
	}
	bad := DefaultParams()
	bad.SlotTableSize = 0
	if _, err := Map(pr, 10, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestAblationMappedPreference(t *testing.T) {
	// Both variants must still produce valid mappings.
	u1 := &traffic.UseCase{Name: "a", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 400}, {Src: 1, Dst: 2, BandwidthMBs: 350},
		{Src: 3, Dst: 4, BandwidthMBs: 300}, {Src: 4, Dst: 5, BandwidthMBs: 250},
	}}
	p := DefaultParams()
	base := mustMap(t, prep(t, 6, u1), 6, p)
	p.DisableMappedPreference = true
	abl := mustMap(t, prep(t, 6, u1), 6, p)
	if base.Mapping.SwitchCount() == 0 || abl.Mapping.SwitchCount() == 0 {
		t.Error("ablation variant failed to map")
	}
}

func TestAblationUnifiedSlots(t *testing.T) {
	u1 := &traffic.UseCase{Name: "a", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 900}, {Src: 1, Dst: 0, BandwidthMBs: 900},
		{Src: 2, Dst: 3, BandwidthMBs: 900}, {Src: 3, Dst: 2, BandwidthMBs: 900},
	}}
	p := DefaultParams()
	p.DisableUnifiedSlots = true
	res := mustMap(t, prep(t, 4, u1), 4, p)
	if res.Mapping.SwitchCount() == 0 {
		t.Error("non-unified variant failed entirely")
	}
}
