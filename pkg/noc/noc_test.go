package noc_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"nocmap/pkg/noc"
)

func fig5Design(t *testing.T) *noc.Design {
	t.Helper()
	d, err := noc.NewDesign("fig5").
		Cores(4).
		AddUseCase("use-case-1",
			noc.NewFlow(0, 1, 10), noc.NewFlow(1, 2, 75), noc.NewFlow(2, 3, 100)).
		AddUseCase("use-case-2",
			noc.NewFlow(2, 3, 42), noc.NewFlow(0, 2, 11), noc.NewFlow(1, 3, 52)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDesignBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *noc.DesignBuilder
		want string
	}{
		{"unknown parallel member",
			noc.NewDesign("x").Cores(2).AddUseCase("a", noc.NewFlow(0, 1, 5)).Parallel("a", "ghost"),
			"unknown use-case"},
		{"unknown smooth member",
			noc.NewDesign("x").Cores(2).AddUseCase("a", noc.NewFlow(0, 1, 5)).Smooth("ghost", "a"),
			"unknown use-case"},
		{"double core declaration",
			noc.NewDesign("x").Cores(2).Cores(3),
			"already declared"},
		{"invalid core count",
			noc.NewDesign("x").Cores(0),
			"invalid"},
		{"design validation",
			noc.NewDesign("x").Cores(2).AddUseCase("a", noc.NewFlow(0, 0, 5)),
			"self-flow"},
	}
	for _, c := range cases {
		if _, err := c.b.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Build() err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestMapUnknownEngine(t *testing.T) {
	if _, err := noc.Map(context.Background(), fig5Design(t), noc.WithEngine("quantum")); err == nil {
		t.Fatal("Map with unknown engine should fail")
	}
}

func TestMapResultStableJSON(t *testing.T) {
	res, err := noc.Map(context.Background(), fig5Design(t))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded noc.Summary
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}
	if decoded.Switches != res.Switches || decoded.Design != "fig5" {
		t.Fatalf("round-tripped summary diverged: %+v vs %+v", decoded, res.Summary)
	}
	// The local summary must be the same shape the service serves: a result
	// decoded from the wire re-encodes byte-identically.
	re, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(direct) {
		t.Fatalf("stable encoding violated:\n%s\nvs\n%s", re, direct)
	}
}

// TestFabricOfDecodedResult: a result decoded from its JSON encoding, which
// carries no in-process mapping, renders the same fabric as the local
// result, and a summary without a topology family reads as a mesh.
func TestFabricOfDecodedResult(t *testing.T) {
	res, err := noc.Map(context.Background(), fig5Design(t))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded noc.Result
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%dx%d mesh (%d switches)", res.Rows, res.Cols, res.Switches)
	if got := res.Fabric(); got != want {
		t.Fatalf("local Fabric() = %q, want %q", got, want)
	}
	if got := decoded.Fabric(); got != want {
		t.Errorf("decoded Fabric() = %q, want %q", got, want)
	}
	decoded.Topology = ""
	if got := decoded.Fabric(); got != want {
		t.Errorf("Fabric() without a topology family = %q, want %q", got, want)
	}
}

// TestWithProgressStreamsAnnealImprovements pins the progress contract: one
// StageMapped for the base, one StageImproved per strict improvement of the
// incumbent (strictly decreasing costs), and a final StageDone carrying the
// best result. D1 with seed 2 is a known-improving deterministic run.
func TestWithProgressStreamsAnnealImprovements(t *testing.T) {
	d, err := noc.Benchmark("D1")
	if err != nil {
		t.Fatal(err)
	}
	var events []noc.Event
	res, err := noc.Map(context.Background(), d,
		noc.WithEngine("anneal"),
		noc.WithSeed(2),
		noc.WithProgress(func(e noc.Event) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("expected mapped + improvements + done, got %d events: %+v", len(events), events)
	}
	if events[0].Stage != noc.StageMapped {
		t.Errorf("first event stage = %q, want %q", events[0].Stage, noc.StageMapped)
	}
	last := events[len(events)-1]
	if last.Stage != noc.StageDone {
		t.Errorf("last event stage = %q, want %q", last.Stage, noc.StageDone)
	}
	if last.Switches != res.Switches {
		t.Errorf("done event reports %d switches, result has %d", last.Switches, res.Switches)
	}
	prev := events[0].Cost
	improvements := 0
	for _, e := range events[1 : len(events)-1] {
		if e.Stage != noc.StageImproved {
			t.Fatalf("unexpected mid-run stage %q", e.Stage)
		}
		if e.Cost >= prev {
			t.Errorf("improvement event cost %v not below previous best %v", e.Cost, prev)
		}
		prev = e.Cost
		improvements++
	}
	if improvements < 1 {
		t.Fatalf("anneal D1 seed 2 improved its incumbent but streamed no StageImproved events: %+v", events)
	}
	if last.Cost != prev {
		t.Errorf("done event cost %v differs from final incumbent %v", last.Cost, prev)
	}
}

// TestWithProgressPortfolioSerialized drives the portfolio with a callback
// that checks it is never entered concurrently (the race detector would
// flag unsynchronized access to the counters).
func TestWithProgressPortfolioSerialized(t *testing.T) {
	d, err := noc.Benchmark("D1")
	if err != nil {
		t.Fatal(err)
	}
	inFlight, calls := 0, 0
	_, err = noc.Map(context.Background(), d,
		noc.WithEngine("portfolio"),
		noc.WithSeeds(3),
		noc.WithIters(40),
		noc.WithProgress(func(e noc.Event) {
			inFlight++
			if inFlight != 1 {
				t.Errorf("progress callback entered concurrently (%d in flight)", inFlight)
			}
			calls++
			inFlight--
		}))
	if err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Errorf("portfolio streamed %d events; want at least mapped + done", calls)
	}
}

// TestMapReportsTimings: a local Map exposes its per-stage wall-clock
// breakdown, consistent with the total, without touching the stable Summary
// encoding (TestMapResultStableJSON pins that separately).
func TestMapReportsTimings(t *testing.T) {
	res, err := noc.Map(context.Background(), fig5Design(t))
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings()
	if tm.TotalMS <= 0 {
		t.Fatalf("TotalMS = %v, want > 0", tm.TotalMS)
	}
	if tm.PrepareMS < 0 || tm.SearchMS < 0 || tm.SummarizeMS < 0 {
		t.Fatalf("negative stage timing: %+v", tm)
	}
	if sum := tm.PrepareMS + tm.SearchMS + tm.SummarizeMS; sum > tm.TotalMS {
		t.Fatalf("stage sum %v exceeds total %v", sum, tm.TotalMS)
	}
	if tm.QueueMS != 0 {
		t.Fatalf("QueueMS = %v on a local run, want 0", tm.QueueMS)
	}
}
