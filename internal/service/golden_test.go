package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"

	_ "nocmap/internal/search/exact"
	_ "nocmap/internal/search/population"
)

// goldenCase is one pinned mapping run: a design, a parameter tweak and the
// engine, with the SHA-256 of the SummarizeResult JSON and of the search
// trace (one line per growth-loop attempt, failure texts included).
type goldenCase struct {
	name   string
	design func() (*traffic.Design, error)
	params func(*core.Params)
	engine string
	opts   search.Options
	result string
	trace  string
}

func synth(c bench.Class, useCases int, seed int64) func() (*traffic.Design, error) {
	return func() (*traffic.Design, error) { return bench.Synthetic(c.SpecFor(useCases, seed)) }
}

var goldenCases = []goldenCase{
	{name: "D1", design: bench.D1,
		result: "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634"},
	{name: "D2", design: bench.D2,
		result: "3603b225247ebb4922d3f94190919322dbfa688d06f436b934a640362decca25",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634"},
	{name: "D3", design: bench.D3,
		result: "58ae3f3b1dad0ff742b1e3582f3e4e7b18825826ed09af7a43737acd0f2d7663",
		trace:  "9888fa3288784cc2b0eafb50ef2be6b9fdd6f3d8841291f3d38dc023cb7f248d"},
	{name: "D4", design: bench.D4,
		result: "1dcb75b5b88708fe69c4b7dc01521ef6f8151f22e135c12924725a170adcdd7d",
		trace:  "5c549e020b363baf67b04b83cda7c269069e5becc12d88c213023680ab12a1be"},
	{name: "Sp", design: synth(bench.Spread, 10, 5),
		result: "6953f9f93e7b46e2e252cd7d47603ccb10bbd38a703040feffe84d87d3d65f78",
		trace:  "a6c1fb369aeb701ac06c621fc590a8f9db74042ee32052948cc209f7e942214c"},
	{name: "Bot", design: synth(bench.Bottleneck, 10, 5),
		result: "4b19bd0f4f429689f9ec6e109f00f5f77cccbb02ba7a24cebb9b79a3046157ab",
		trace:  "f9aab5ccd3485c07c45228f4d63e890c294a50d535ef89b49a00839234983913"},
	{name: "D4/torus", design: bench.D4, params: func(p *core.Params) {
		p.FreqMHz = 300 // the torus only differs from a mesh from 3x3 up
		p.Topology = topology.Spec{Kind: topology.KindTorus}
	},
		result: "b0e9695f1ffb5577c88f5926ebf8238c19c4de4cb4e168f4a4989ba420555468",
		trace:  "498375f59bc98917da6369e7f8473b4676bac941b2d111b5530d854e51dd0885"},
	{name: "D4/ablation", design: bench.D4, params: func(p *core.Params) {
		p.DisableUnifiedSlots = true
		p.DisableMappedPreference = true
	},
		result: "5cdfd4b9305460ac32bf942c9a7b4c2164701d9915356707a55224588ebf891b",
		trace:  "dbe0e361fa08796ec21e8bf7b9d103cb7b4620d37577fb11d4cf23ce06fcdd46"},
	{name: "D2/improve", design: bench.D2, params: func(p *core.Params) { p.Improve = true },
		result: "629e81ace8af0582e26032640eef05b42175261cd7d1626fb93316654fc5f1a4",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634"},
	{name: "D4/anneal", design: bench.D4, params: func(p *core.Params) { p.FreqMHz = 300 },
		engine: "anneal", opts: search.Options{Seed: 2, Iters: 300},
		result: "4c260735dfc6efed598256c4dda1ec147ceea57b9ef0d4ea5932eb77d5c6a99b",
		trace:  "5ce11341d7a07f1216f3e6f748a638a4de44986c55a000cc36a999c20845db79"},
	{name: "D1/ga", design: bench.D1, engine: "ga", opts: search.Options{Seed: 7, Population: 8, Generations: 4},

		result: "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634"},
	{name: "D1/exact", design: bench.D1, engine: "exact", opts: search.Options{Nodes: 20000},

		result: "032fe9d65bc275b2c5d9304bc7cbd323b589216a05b542cbabff26afa1329359",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634"},
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// traceText renders the growth-loop attempts, one line each, so failed
// attempts' error texts are pinned along with the result.
func traceText(attempts []core.Attempt) string {
	var b strings.Builder
	for _, a := range attempts {
		b.WriteString(a.Dim.String())
		if a.Skipped {
			b.WriteString(" skipped")
		}
		if a.Err != "" {
			b.WriteString(" err: " + a.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMapGolden pins the wire result and the search trace of the growth
// loop and of the search engines on the paper designs, both synthetic
// classes, a torus, the ablations and the refinement pass. Any change to
// the constructive mapper, the evaluator or the verifier that alters a
// single output byte shows up here.
func TestMapGolden(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			d, err := gc.design()
			if err != nil {
				t.Fatal(err)
			}
			prep, err := usecase.Prepare(d)
			if err != nil {
				t.Fatal(err)
			}
			p := core.DefaultParams()
			if gc.params != nil {
				gc.params(&p)
			}
			engine := gc.engine
			if engine == "" {
				engine = "greedy"
			}
			eng, err := search.New(engine)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Search(context.Background(), prep, d.NumCores(), p, gc.opts)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(SummarizeResult(d.Name, prep, res))
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(raw); got != gc.result {
				t.Errorf("result sha256 = %s, want %s", got, gc.result)
			}
			if got := sha([]byte(traceText(res.Attempts))); got != gc.trace {
				t.Errorf("trace sha256 = %s, want %s\n%s", got, gc.trace, traceText(res.Attempts))
			}
		})
	}
}

// TestMapInfeasibleGolden pins the exact error texts of two infeasible
// inputs: a flow wider than a link and a latency bound below one slot.
func TestMapInfeasibleGolden(t *testing.T) {
	const latencyErr = `core: flow 0->1 (40.0 MB/s, use-case "u"): group 0: ` +
		`flow 0->1: no aligned slots (need 2, latency budget 0 slots) on any of 1 paths`
	cases := []struct {
		name  string
		flow  traffic.Flow
		max   int
		err   string
		trace string
	}{
		{"bandwidth", traffic.Flow{Src: 0, Dst: 1, BandwidthMBs: 5000}, 3,
			"core: no feasible mapping up to 3x3 mesh (last: no switch has NI capacity for core 0)",
			"1x1 err: no switch has NI capacity for core 0\n1x2 err: no switch has NI capacity for core 0\n" +
				"1x3 err: no switch has NI capacity for core 0\n2x2 err: no switch has NI capacity for core 0\n" +
				"2x3 err: no switch has NI capacity for core 0\n3x3 err: no switch has NI capacity for core 0\n"},
		{"latency", traffic.Flow{Src: 0, Dst: 1, BandwidthMBs: 40, MaxLatencyNS: 1}, 2,
			"core: no feasible mapping up to 2x2 mesh (last: " + latencyErr + ")",
			"1x1 err: " + latencyErr + "\n1x2 err: " + latencyErr + "\n2x2 err: " + latencyErr + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &traffic.Design{Name: "t", Cores: traffic.MakeCores(2),
				UseCases: []*traffic.UseCase{{Name: "u", Flows: []traffic.Flow{tc.flow}}}}
			prep, err := usecase.Prepare(d)
			if err != nil {
				t.Fatal(err)
			}
			p := core.DefaultParams()
			p.MaxMeshDim = tc.max
			_, err = core.Map(prep, 2, p)
			var inf *core.InfeasibleError
			if !errors.As(err, &inf) {
				t.Fatalf("err = %v, want InfeasibleError", err)
			}
			if got := err.Error(); got != tc.err {
				t.Errorf("error text:\n got %q\nwant %q", got, tc.err)
			}
			if got := traceText(inf.Attempts); got != tc.trace {
				t.Errorf("attempts:\n got %q\nwant %q", got, tc.trace)
			}
		})
	}
}
