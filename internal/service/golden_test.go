package service

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
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
// engine, with the SHA-256 of the SummarizeResult JSON, of the search trace
// (one line per growth-loop attempt, failure texts included) and of the
// progress event stream (see eventText).
type goldenCase struct {
	name   string
	design func() (*traffic.Design, error)
	params func(*core.Params)
	engine string
	opts   search.Options
	result string
	trace  string
	events string
}

func synth(c bench.Class, useCases int, seed int64) func() (*traffic.Design, error) {
	return func() (*traffic.Design, error) { return bench.Synthetic(c.SpecFor(useCases, seed)) }
}

// at300MHz lowers the clock so the greedy base of D2, D4 and Sp leaves the
// improvement engines room: improving moves and smaller fabrics to probe.
func at300MHz(p *core.Params) { p.FreqMHz = 300 }

// defaultsWith is search.DefaultOptions() with one tweak, so the engine
// cases score candidates under the default cost weights and probe smaller
// fabrics with the default restarts.
func defaultsWith(tweak func(*search.Options)) search.Options {
	o := search.DefaultOptions()
	tweak(&o)
	return o
}

// populationOpts sizes the ga/pso/abc cases.
func populationOpts(o *search.Options) { o.Seed, o.Population, o.Generations = 7, 8, 4 }

var goldenCases = []goldenCase{
	{name: "D1", design: bench.D1,
		result: "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "2b2a31515524d26aa83d714269a20d60e8e7a77541a2b025ec1fd3702c990a17"},
	{name: "D2", design: bench.D2,
		result: "3603b225247ebb4922d3f94190919322dbfa688d06f436b934a640362decca25",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "2b2a31515524d26aa83d714269a20d60e8e7a77541a2b025ec1fd3702c990a17"},
	{name: "D3", design: bench.D3,
		result: "58ae3f3b1dad0ff742b1e3582f3e4e7b18825826ed09af7a43737acd0f2d7663",
		trace:  "9888fa3288784cc2b0eafb50ef2be6b9fdd6f3d8841291f3d38dc023cb7f248d",
		events: "2b2a31515524d26aa83d714269a20d60e8e7a77541a2b025ec1fd3702c990a17"},
	{name: "D4", design: bench.D4,
		result: "1dcb75b5b88708fe69c4b7dc01521ef6f8151f22e135c12924725a170adcdd7d",
		trace:  "5c549e020b363baf67b04b83cda7c269069e5becc12d88c213023680ab12a1be",
		events: "2b2a31515524d26aa83d714269a20d60e8e7a77541a2b025ec1fd3702c990a17"},
	{name: "Sp", design: synth(bench.Spread, 10, 5),
		result: "6953f9f93e7b46e2e252cd7d47603ccb10bbd38a703040feffe84d87d3d65f78",
		trace:  "a6c1fb369aeb701ac06c621fc590a8f9db74042ee32052948cc209f7e942214c",
		events: "82c0360dace5268f21b9e71c2512cf88d4f9aeaa77d63e06951364da945fc711"},
	{name: "Bot", design: synth(bench.Bottleneck, 10, 5),
		result: "4b19bd0f4f429689f9ec6e109f00f5f77cccbb02ba7a24cebb9b79a3046157ab",
		trace:  "f9aab5ccd3485c07c45228f4d63e890c294a50d535ef89b49a00839234983913",
		events: "2b2a31515524d26aa83d714269a20d60e8e7a77541a2b025ec1fd3702c990a17"},
	{name: "D4/torus", design: bench.D4, params: func(p *core.Params) {
		p.FreqMHz = 300 // the torus only differs from a mesh from 3x3 up
		p.Topology = topology.Spec{Kind: topology.KindTorus}
	},
		result: "b0e9695f1ffb5577c88f5926ebf8238c19c4de4cb4e168f4a4989ba420555468",
		trace:  "498375f59bc98917da6369e7f8473b4676bac941b2d111b5530d854e51dd0885",
		events: "19cd6587ba59b6c22abb2ebbcc9e097ddea89c79610750f40d254747e95a5498"},
	{name: "D4/ablation", design: bench.D4, params: func(p *core.Params) {
		p.DisableUnifiedSlots = true
		p.DisableMappedPreference = true
	},
		result: "5cdfd4b9305460ac32bf942c9a7b4c2164701d9915356707a55224588ebf891b",
		trace:  "dbe0e361fa08796ec21e8bf7b9d103cb7b4620d37577fb11d4cf23ce06fcdd46",
		events: "2b2a31515524d26aa83d714269a20d60e8e7a77541a2b025ec1fd3702c990a17"},
	{name: "D2/improve", design: bench.D2, params: func(p *core.Params) { p.Improve = true },
		result: "629e81ace8af0582e26032640eef05b42175261cd7d1626fb93316654fc5f1a4",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "2b2a31515524d26aa83d714269a20d60e8e7a77541a2b025ec1fd3702c990a17"},
	{name: "D4/anneal", design: bench.D4, params: at300MHz,
		engine: "anneal", opts: defaultsWith(func(o *search.Options) { o.Seed, o.Iters = 2, 300 }),
		result: "49f57fcb05788a2b453d733b868ae645e2c035c7062f98633d777993bfa156d2",
		trace:  "73f867854bb07b74ab9f7cbb9c580c3709a9b62b3f5d63ab5d01a404e1be4907",
		events: "f1199b7024a08ec86ae897497887896c44fd5ff852eea0319a05ee73fe272fdc"},
	{name: "D4/anneal-spec2", design: bench.D4, params: at300MHz,
		engine: "anneal", opts: defaultsWith(func(o *search.Options) { o.Seed, o.Iters, o.SpecK = 2, 300, 2 }),
		result: "a791b02e83d52b7fcac709015fc173857d90dfa1963a735b9e167dcbd91d024b",
		trace:  "73f867854bb07b74ab9f7cbb9c580c3709a9b62b3f5d63ab5d01a404e1be4907",
		events: "b8dcc74675b38798eecb8730f3d5ab593c1d3e57c93c93d3da3388713d5d766f"},
	{name: "D2/anneal", design: bench.D2, params: at300MHz,
		engine: "anneal", opts: defaultsWith(func(o *search.Options) { o.Seed, o.Iters = 2, 300 }),
		result: "4f7459712952ea122e30a5d3efe80545de295d36de51eaab56aec37d0f482b16",
		trace:  "932172aa73e8f67375b811b7277d99576d73cec2abbc21a0f99139776bb22fcc",
		events: "ba041eb8556fb078fd29573a83313e9cb8dc319057031597f9c9e4bc0afe5379"},
	{name: "Sp/portfolio", design: synth(bench.Spread, 10, 5), params: at300MHz,
		engine: "portfolio", opts: defaultsWith(func(o *search.Options) { o.Seed, o.Seeds, o.Iters = 2, 2, 120 }),
		result: "557263601be2228c8f9cc94e5fde3ef7db34baf375815104a1d3717aa843b441",
		trace:  "40de8e9408072de5e91d73c93f605fa1cfc2ed6622269658181313c270c19909",
		events: "b1e0ec972551273d8a31a396866bb5053b5da64a277a346a18a1ea7d0d632502"},
	{name: "D1/ga", design: bench.D1, engine: "ga", opts: defaultsWith(populationOpts),
		result: "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "2896e42093b0ae8dfbd0dfaae1cede3f0a742576c970557c92f3a799a507d91d"},
	{name: "D4/ga", design: bench.D4, params: at300MHz, engine: "ga", opts: defaultsWith(populationOpts),
		result: "03f1af845a38d4e9692aa18d7693ae43e02c53cfe13f581d6ab94fccdce8308b",
		trace:  "73f867854bb07b74ab9f7cbb9c580c3709a9b62b3f5d63ab5d01a404e1be4907",
		events: "16c4464c1f4d9ae5648b229e65c23cd4fdf5f20de70e39e6eca76bcc36484c5f"},
	{name: "D4/pso", design: bench.D4, params: at300MHz, engine: "pso", opts: defaultsWith(populationOpts),
		result: "f439f329b5776803bd06b1f0a8e1ba9880e01eb6b8de5b364000b48f980d659a",
		trace:  "73f867854bb07b74ab9f7cbb9c580c3709a9b62b3f5d63ab5d01a404e1be4907",
		events: "b66d55ce682b48a04815624d43db9e4e4af90ff1182ad5ce7de2efa0cba42eae"},
	{name: "D4/abc", design: bench.D4, params: at300MHz, engine: "abc", opts: defaultsWith(populationOpts),
		result: "758275a10bb460920ae3a8f61d09f445cabf703db82d3f6872b239371f6bdb0e",
		trace:  "73f867854bb07b74ab9f7cbb9c580c3709a9b62b3f5d63ab5d01a404e1be4907",
		events: "4c079dd7f9174985a0baddb1509f09e07e87747cbdd6805483bab7525e3487c4"},
	{name: "D1/exact", design: bench.D1, engine: "exact", opts: search.Options{Nodes: 20000},
		result: "032fe9d65bc275b2c5d9304bc7cbd323b589216a05b542cbabff26afa1329359",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "031b44fc4067a7c53444879132e4792aeef7f9a72d5136e4e6ebb1fb7added33"},
	// Every improvement engine on D1 under search.DefaultOptions(): the runs
	// whose switches, peak link utilization and lower bound the committed
	// BENCH_*.json engine rows record.
	{name: "D1/anneal/defaults", design: bench.D1, engine: "anneal", opts: search.DefaultOptions(),
		result: "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "ce5d44d841a6e9dcd851b2e3f88bf8f4bbc9514914bee4271cef22faf4411c95"},
	{name: "D1/portfolio/defaults", design: bench.D1, engine: "portfolio", opts: search.DefaultOptions(),
		result: "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "d6619172d0e38ab03da9395d231dc3946ff07f070589450ba4eef4cd2526fb7c"},
	{name: "D1/ga/defaults", design: bench.D1, engine: "ga", opts: search.DefaultOptions(),
		result: "2afcf09774a5a5a015bf1e25eeeb28db0076050727bfaeca42bf136da87d2162",
		trace:  "8b4ca62a1cd9434343870c3bb8956a62647b5e720aeb860290d286f4d8bb39ba",
		events: "0db1a286de942f606ee66e6afe94d4e43a156547f5d4c3db6750b18c3f0044c3"},
	{name: "D1/pso/defaults", design: bench.D1, engine: "pso", opts: search.DefaultOptions(),
		result: "fba878e1e6997bc11fe375bb55a5cfa81ef7d0c333aa9a4aac77c2fa606406d8",
		trace:  "8b4ca62a1cd9434343870c3bb8956a62647b5e720aeb860290d286f4d8bb39ba",
		events: "9eccfd87f67d6b2f282c101a6cfb01895ecdd1684fc186920739abf5178946ef"},
	{name: "D1/abc/defaults", design: bench.D1, engine: "abc", opts: search.DefaultOptions(),
		result: "3564dae34fed34714a0a5a12451644ab2505ab7fb16a762a9c8e668cdce8093b",
		trace:  "8b4ca62a1cd9434343870c3bb8956a62647b5e720aeb860290d286f4d8bb39ba",
		events: "00b0f6fc003dd8bb953262a757a2f1ab585bc5aa3e39d7bb9105c8f6ef7f7084"},
	{name: "D1/exact/defaults", design: bench.D1, engine: "exact", opts: search.DefaultOptions(),
		result: "032fe9d65bc275b2c5d9304bc7cbd323b589216a05b542cbabff26afa1329359",
		trace:  "122aa512d199aeddec8fb67288bf529431ed14d3dbda3a9689791ce640a45634",
		events: "1cda5c42adb8c3d5d4af011bfa441a5e160367aa3559702e7728053b17331073"},
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

// eventText renders the progress events one line each: engine, stage, seed,
// switches, cost and the effort counters. Concurrent portfolio members
// interleave their events by scheduling, so lines are stably grouped by
// engine and seed; each emitter's own order is kept.
func eventText(events []search.Event) string {
	slices.SortStableFunc(events, func(a, b search.Event) int {
		return cmp.Or(cmp.Compare(a.Engine, b.Engine), cmp.Compare(a.Seed, b.Seed))
	})
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%s %s %d %d %s %+v\n", e.Engine, e.Stage, e.Seed, e.Switches,
			strconv.FormatFloat(e.Cost, 'g', -1, 64), e.Counts)
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
			var events []search.Event
			opts := gc.opts
			opts.Progress = func(e search.Event) { events = append(events, e) }
			res, err := eng.Search(context.Background(), prep, d.NumCores(), p, opts)
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
			if got := sha([]byte(eventText(events))); got != gc.events {
				t.Errorf("events sha256 = %s, want %s\n%s", got, gc.events, eventText(events))
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
