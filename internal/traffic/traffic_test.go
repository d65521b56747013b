package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func validUC(name string) *UseCase {
	return &UseCase{Name: name, Flows: []Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 100, MaxLatencyNS: 1000},
		{Src: 1, Dst: 2, BandwidthMBs: 50},
	}}
}

func TestValidateOK(t *testing.T) {
	if err := validUC("u").Validate(3); err != nil {
		t.Errorf("valid use-case rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		uc   *UseCase
		n    int
	}{
		{"endpoint out of range", &UseCase{Name: "u", Flows: []Flow{{Src: 0, Dst: 3, BandwidthMBs: 1}}}, 3},
		{"negative endpoint", &UseCase{Name: "u", Flows: []Flow{{Src: -1, Dst: 1, BandwidthMBs: 1}}}, 3},
		{"self flow", &UseCase{Name: "u", Flows: []Flow{{Src: 1, Dst: 1, BandwidthMBs: 1}}}, 3},
		{"zero bandwidth", &UseCase{Name: "u", Flows: []Flow{{Src: 0, Dst: 1, BandwidthMBs: 0}}}, 3},
		{"negative bandwidth", &UseCase{Name: "u", Flows: []Flow{{Src: 0, Dst: 1, BandwidthMBs: -5}}}, 3},
		{"NaN bandwidth", &UseCase{Name: "u", Flows: []Flow{{Src: 0, Dst: 1, BandwidthMBs: math.NaN()}}}, 3},
		{"Inf bandwidth", &UseCase{Name: "u", Flows: []Flow{{Src: 0, Dst: 1, BandwidthMBs: math.Inf(1)}}}, 3},
		{"negative latency", &UseCase{Name: "u", Flows: []Flow{{Src: 0, Dst: 1, BandwidthMBs: 1, MaxLatencyNS: -1}}}, 3},
		{"duplicate pair", &UseCase{Name: "u", Flows: []Flow{
			{Src: 0, Dst: 1, BandwidthMBs: 1}, {Src: 0, Dst: 1, BandwidthMBs: 2}}}, 3},
	}
	for _, tc := range cases {
		if err := tc.uc.Validate(tc.n); err == nil {
			t.Errorf("%s: Validate accepted invalid use-case", tc.name)
		}
	}
}

func TestTotalsAndMax(t *testing.T) {
	u := validUC("u")
	if got := u.TotalBandwidth(); got != 150 {
		t.Errorf("TotalBandwidth = %v, want 150", got)
	}
	empty := &UseCase{Name: "e"}
	if empty.TotalBandwidth() != 0 {
		t.Error("empty use-case totals should be zero")
	}
}

func TestFlowByPair(t *testing.T) {
	u := validUC("u")
	f, ok := u.FlowByPair(PairKey{Src: 0, Dst: 1})
	if !ok || f.BandwidthMBs != 100 {
		t.Errorf("FlowByPair(0,1) = %+v,%v", f, ok)
	}
	if _, ok := u.FlowByPair(PairKey{Src: 1, Dst: 0}); ok {
		t.Error("reverse pair should be absent (flows are directed)")
	}
}

func TestSortFlows(t *testing.T) {
	u := &UseCase{Name: "u", Flows: []Flow{
		{Src: 2, Dst: 3, BandwidthMBs: 10},
		{Src: 0, Dst: 1, BandwidthMBs: 99},
		{Src: 1, Dst: 2, BandwidthMBs: 99},
	}}
	u.SortFlows()
	want := []PairKey{{0, 1}, {1, 2}, {2, 3}}
	for i, k := range want {
		if u.Flows[i].Key() != k {
			t.Fatalf("flow %d = %v, want %v (order %v)", i, u.Flows[i].Key(), k, u.Flows)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	u := validUC("u")
	c := u.Clone()
	c.Flows[0].BandwidthMBs = 1
	c.Name = "other"
	if u.Flows[0].BandwidthMBs != 100 || u.Name != "u" {
		t.Error("Clone shares state with original")
	}
}

func TestCombineFig2Style(t *testing.T) {
	// Two use-cases sharing pair (0,1); compound must sum bandwidths and take
	// min latency.
	u1 := &UseCase{Name: "uc1", Flows: []Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 100, MaxLatencyNS: 500},
		{Src: 1, Dst: 2, BandwidthMBs: 50, MaxLatencyNS: 0},
	}}
	u2 := &UseCase{Name: "uc2", Flows: []Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 30, MaxLatencyNS: 200},
		{Src: 2, Dst: 0, BandwidthMBs: 70, MaxLatencyNS: 900},
	}}
	c := Combine("uc1+uc2", []*UseCase{u1, u2})
	if !c.Compound {
		t.Error("Combine result must be marked Compound")
	}
	if !reflect.DeepEqual(c.Parts, []string{"uc1", "uc2"}) {
		t.Errorf("Parts = %v", c.Parts)
	}
	if len(c.Flows) != 3 {
		t.Fatalf("compound has %d flows, want 3: %+v", len(c.Flows), c.Flows)
	}
	f01, ok := c.FlowByPair(PairKey{0, 1})
	if !ok || f01.BandwidthMBs != 130 || f01.MaxLatencyNS != 200 {
		t.Errorf("combined (0,1) = %+v, want bw 130 lat 200", f01)
	}
	f12, ok := c.FlowByPair(PairKey{1, 2})
	if !ok || f12.BandwidthMBs != 50 || f12.MaxLatencyNS != 0 {
		t.Errorf("combined (1,2) = %+v, want bw 50 lat 0 (unconstrained)", f12)
	}
	f20, ok := c.FlowByPair(PairKey{2, 0})
	if !ok || f20.BandwidthMBs != 70 || f20.MaxLatencyNS != 900 {
		t.Errorf("combined (2,0) = %+v", f20)
	}
}

func TestCombineLatencyUnconstrainedNeverTightens(t *testing.T) {
	u1 := &UseCase{Name: "a", Flows: []Flow{{Src: 0, Dst: 1, BandwidthMBs: 10, MaxLatencyNS: 0}}}
	u2 := &UseCase{Name: "b", Flows: []Flow{{Src: 0, Dst: 1, BandwidthMBs: 10, MaxLatencyNS: 300}}}
	c := Combine("ab", []*UseCase{u1, u2})
	f, _ := c.FlowByPair(PairKey{0, 1})
	if f.MaxLatencyNS != 300 {
		t.Errorf("latency = %v, want 300 (zero must not be treated as tightest)", f.MaxLatencyNS)
	}
}

// Property: compound total bandwidth equals the sum of constituent totals,
// and per-pair bandwidth is the sum of per-pair bandwidths.
func TestCombineBandwidthConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		mk := func(name string) *UseCase {
			u := &UseCase{Name: name}
			used := map[PairKey]bool{}
			for i := 0; i < 1+rng.Intn(12); i++ {
				s, d := rng.Intn(n), rng.Intn(n)
				if s == d || used[PairKey{CoreID(s), CoreID(d)}] {
					continue
				}
				used[PairKey{CoreID(s), CoreID(d)}] = true
				u.Flows = append(u.Flows, Flow{
					Src: CoreID(s), Dst: CoreID(d),
					BandwidthMBs: 1 + rng.Float64()*400,
					MaxLatencyNS: float64(rng.Intn(2)) * (100 + rng.Float64()*900),
				})
			}
			return u
		}
		parts := []*UseCase{mk("a"), mk("b"), mk("c")}
		c := Combine("abc", parts)
		var want float64
		for _, p := range parts {
			want += p.TotalBandwidth()
		}
		if math.Abs(c.TotalBandwidth()-want) > 1e-6 {
			return false
		}
		// Per-pair check and latency = min of positive latencies.
		for _, cf := range c.Flows {
			var bw, lat float64
			for _, p := range parts {
				if pf, ok := p.FlowByPair(cf.Key()); ok {
					bw += pf.BandwidthMBs
					if pf.MaxLatencyNS > 0 && (lat == 0 || pf.MaxLatencyNS < lat) {
						lat = pf.MaxLatencyNS
					}
				}
			}
			if math.Abs(cf.BandwidthMBs-bw) > 1e-6 || cf.MaxLatencyNS != lat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func validDesign() *Design {
	return &Design{
		Name:  "d",
		Cores: MakeCores(3),
		UseCases: []*UseCase{
			validUC("u0"),
			{Name: "u1", Flows: []Flow{{Src: 2, Dst: 0, BandwidthMBs: 10}}},
		},
		ParallelSets: [][]int{{0, 1}},
		SmoothPairs:  [][2]int{{0, 1}},
	}
}

func TestDesignValidateOK(t *testing.T) {
	if err := validDesign().Validate(); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
}

func TestDesignValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Design)
	}{
		{"no cores", func(d *Design) { d.Cores = nil }},
		{"sparse core IDs", func(d *Design) { d.Cores[1].ID = 5 }},
		{"no use-cases", func(d *Design) { d.UseCases = nil }},
		{"unnamed use-case", func(d *Design) { d.UseCases[0].Name = "" }},
		{"duplicate names", func(d *Design) { d.UseCases[1].Name = "u0" }},
		{"invalid flow", func(d *Design) { d.UseCases[0].Flows[0].BandwidthMBs = -1 }},
		{"parallel set too small", func(d *Design) { d.ParallelSets = [][]int{{0}} }},
		{"parallel out of range", func(d *Design) { d.ParallelSets = [][]int{{0, 7}} }},
		{"parallel repeats", func(d *Design) { d.ParallelSets = [][]int{{1, 1}} }},
		{"smooth out of range", func(d *Design) { d.SmoothPairs = [][2]int{{0, 9}} }},
	}
	for _, m := range mutations {
		d := validDesign()
		m.mut(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid design", m.name)
		}
	}
}

func TestMakeCores(t *testing.T) {
	cores := MakeCores(4)
	if len(cores) != 4 {
		t.Fatalf("len = %d", len(cores))
	}
	for i, c := range cores {
		if int(c.ID) != i || c.Name == "" {
			t.Errorf("core %d = %+v", i, c)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := validDesign()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.Name != d.Name || len(back.Cores) != len(d.Cores) || len(back.UseCases) != len(d.UseCases) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	for i, u := range back.UseCases {
		if !reflect.DeepEqual(u.Flows, d.UseCases[i].Flows) {
			t.Errorf("use-case %d flows differ: %+v vs %+v", i, u.Flows, d.UseCases[i].Flows)
		}
	}
	if !reflect.DeepEqual(back.ParallelSets, d.ParallelSets) || !reflect.DeepEqual(back.SmoothPairs, d.SmoothPairs) {
		t.Error("parallel/smooth specs lost in round trip")
	}
}

func TestReadJSONNumCoresOnly(t *testing.T) {
	in := `{"name":"x","num_cores":2,"use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":5}]}]}`
	d, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(d.Cores) != 2 || d.UseCases[0].Flows[0].BandwidthMBs != 5 {
		t.Errorf("parsed design = %+v", d)
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{`,
		"no cores":       `{"name":"x","use_cases":[{"name":"u","flows":[]}]}`,
		"unknown field":  `{"name":"x","num_cores":2,"bogus":1,"use_cases":[{"name":"u","flows":[]}]}`,
		"invalid design": `{"name":"x","num_cores":2,"use_cases":[{"name":"u","flows":[{"src":0,"dst":5,"bandwidth_mbs":5}]}]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSON accepted invalid input", name)
		}
	}
}

// Regression: a hostile num_cores must be rejected before any
// size-proportional allocation, not after (the fuzz-smoke CI job mutates
// the count digits).
func TestReadJSONRejectsHostileCoreCount(t *testing.T) {
	in := `{"name":"huge","num_cores":999999999,"use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":1}]}]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("hostile num_cores: err = %v, want a limit rejection", err)
	}
}
