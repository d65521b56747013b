package traffic_test

import (
	"os"
	"strings"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/traffic"
)

// goldenDesigns are the designs whose digests are pinned: the accepted seeds
// of FuzzDesignJSON, a design with a compound use-case, one whose names need
// quoting, and D1.
func goldenDesigns(t *testing.T) map[string]*traffic.Design {
	t.Helper()
	read := func(in string) *traffic.Design {
		d, err := traffic.ReadJSON(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	out := map[string]*traffic.Design{
		"fuzz-seed": read(`{"name":"d","num_cores":3,"use_cases":[` +
			`{"name":"a","flows":[{"src":0,"dst":1,"bandwidth_mbs":10},{"src":1,"dst":2,"bandwidth_mbs":5,"max_latency_ns":900}]},` +
			`{"name":"b","flows":[{"src":2,"dst":0,"bandwidth_mbs":7}]}],` +
			`"parallel_sets":[[0,1]],"smooth_pairs":[[1,0]]}`),
		"fuzz-torus": read(`{"name":"t","num_cores":2,"topology":"torus","use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":1}]}]}`),
		"fuzz-named": read(`{"name":"named","core_names":["cpu","dsp"],"use_cases":[{"name":"u","flows":[{"src":1,"dst":0,"bandwidth_mbs":2.5}]}]}`),
	}

	cores := traffic.MakeCores(4)
	x := &traffic.UseCase{Name: "x", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 100, MaxLatencyNS: 400},
		{Src: 2, Dst: 3, BandwidthMBs: 0.1},
	}}
	y := &traffic.UseCase{Name: "y", Flows: []traffic.Flow{
		{Src: 2, Dst: 3, BandwidthMBs: 1.0 / 3},
		{Src: 1, Dst: 0, BandwidthMBs: 12.5, MaxLatencyNS: 250},
	}}
	out["compound"] = &traffic.Design{
		Name:     "compound",
		Cores:    cores,
		UseCases: []*traffic.UseCase{x, y, traffic.Combine("y+x", []*traffic.UseCase{y, x})},
	}

	quoted := traffic.MakeCores(3)
	quoted[0].Name = "say \"hi\""
	quoted[1].Name = "line\nbreak\ttab\x00"
	quoted[2].Name = "café ☕  \xff"
	out["quoted"] = &traffic.Design{
		Name:  "q\"uote\\d\nname ü",
		Cores: quoted,
		UseCases: []*traffic.UseCase{
			{Name: "mode \"β\"", Flows: []traffic.Flow{{Src: 0, Dst: 2, BandwidthMBs: 64}}},
			{Name: "mode\n2", Flows: []traffic.Flow{{Src: 2, Dst: 1, BandwidthMBs: 1e-7}}},
		},
		SmoothPairs: [][2]int{{1, 0}},
	}

	d1, err := bench.D1()
	if err != nil {
		t.Fatal(err)
	}
	out["D1"] = d1
	for name, d := range out {
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

// TestDigestGolden pins the canonical digests. Durable result stores are
// keyed by them, so any change to the nocmap-design-v2 encoding must fail
// here rather than silently orphan stored results.
func TestDigestGolden(t *testing.T) {
	want := map[string]string{
		"fuzz-seed":  "c26cab370b659b8d43d923e29f2006d09f0bd4228dc49da195137b417106fdae",
		"fuzz-torus": "712c76c045c28768ed48fec540c495b0711a52c7a0ef30609ba21834d3b6f1a7",
		"fuzz-named": "b76815b41d041c8eaf967070b99a5b37e45440ec389653a92940e6a6c2096ade",
		"compound":   "1820f4c78200a645230bc2f29ac2df968de2687bce08185523fb2eaf0c769663",
		"quoted":     "2f54a1092cf742c22c715636cfc97e0f3dc22f36f8767132ee072972ec7fc851",
		"D1":         "4ef3cc0841e28ed25eebe192807f10d3ac4fa5b235a4b33907a1ac34be5a58f9",
	}
	designs := goldenDesigns(t)
	if len(designs) != len(want) {
		t.Fatalf("%d golden designs, %d pinned digests", len(designs), len(want))
	}
	for name, d := range designs {
		if got := d.Digest(); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}

// TestDigestAllocs gates the digest's allocations on D4 at a small
// constant (7 measured): the encoding buffer, the use-case and flow
// permutations and the hex string. The canonical form is written through
// sorted permutations of the design, so nothing is allocated per use-case,
// encoded line or flow.
func TestDigestAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	d, err := bench.D4()
	if err != nil {
		t.Fatal(err)
	}
	const limit = 10
	if got := testing.AllocsPerRun(20, func() { d.Digest() }); got > limit {
		t.Errorf("D4 digest: %.0f allocs/op, want <= %d (%d use-cases)", got, limit, len(d.UseCases))
	}
}
