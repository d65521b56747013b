package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nocmap/internal/traffic"
)

// scrapeMetrics GETs /v1/metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q is not Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample ("name" includes any label set, verbatim)
// from an exposition body; missing samples fail the test.
func metricValue(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metric %q not found in exposition:\n%s", name, body)
	return ""
}

func wantMetric(t *testing.T, body, name, want string) {
	t.Helper()
	if got := metricValue(t, body, name); got != want {
		t.Errorf("%s = %s, want %s", name, got, want)
	}
}

func designJSON(t *testing.T, d *traffic.Design) *traffic.DesignJSON {
	t.Helper()
	return d.JSON()
}

// TestMetricsEndToEnd drives the service through a map, a cache hit, a
// memo-answered repeat and three concurrent deduplicated maps over HTTP and
// asserts the exact counter deltas on /v1/metrics. CacheEntries=1 additionally forces an observable
// eviction.
// When METRICS_SNAPSHOT_FILE is set the final scrape is written there, which
// CI lints for naming conventions and uploads as a build artifact.
func TestMetricsEndToEnd(t *testing.T) {
	gate := make(chan struct{})
	registerGate("gate-metrics", gate)
	s := New(Config{Workers: 2, CacheEntries: 1})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	cold := scrapeMetrics(t, ts.URL)
	wantMetric(t, cold, "noc_cache_hits_total", "0")
	wantMetric(t, cold, "noc_cache_misses_total", "0")
	wantMetric(t, cold, "noc_cache_evictions_total", "0")
	wantMetric(t, cold, "noc_cache_upgrades_total", "0")
	wantMetric(t, cold, "noc_dedup_joins_total", "0")
	wantMetric(t, cold, "noc_request_memo_hits_total", "0")
	wantMetric(t, cold, "noc_stream_events_total", "0")
	wantMetric(t, cold, "noc_stream_admit_seconds_count", "0")
	wantMetric(t, cold, "noc_queue_capacity", "64")
	wantMetric(t, cold, "noc_workers", "2")

	// One miss, then one hit on the identical request, which memoizes the
	// body, then one memo answer of it.
	mapReq := MapRequest{Design: designJSON(t, testDesign("metrics-d")), Engine: "greedy"}
	for range 3 {
		resp, body := postJSON(t, ts.URL+"/v1/map", mapReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/map = %d: %s", resp.StatusCode, body)
		}
	}

	// Three identical gated requests in flight at once: admission is
	// serialized under the service mutex and no run can finish while the
	// gate is open, so exactly one misses and two join the in-flight run.
	gated := MapRequest{Design: designJSON(t, testDesign("metrics-gated")), Engine: "gate-metrics"}
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/map", gated)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("gated POST /v1/map = %d: %s", resp.StatusCode, body)
			}
		}()
	}
	waitFor(t, "two dedup joins", func() bool {
		return s.Stats().Deduped == 2
	})
	close(gate)
	wg.Wait()

	final := scrapeMetrics(t, ts.URL)
	wantMetric(t, final, "noc_cache_hits_total", "2")
	wantMetric(t, final, "noc_request_memo_hits_total", "1")
	wantMetric(t, final, "noc_cache_misses_total", "2")
	wantMetric(t, final, "noc_dedup_joins_total", "2")
	// The gated result landed in the 1-entry cache, evicting the greedy one.
	wantMetric(t, final, "noc_cache_evictions_total", "1")
	wantMetric(t, final, "noc_cache_entries", "1")
	wantMetric(t, final, `noc_jobs_total{status="done"}`, "2")
	wantMetric(t, final, `noc_engine_duration_seconds_count{engine="greedy"}`, "1")
	wantMetric(t, final, `noc_engine_duration_seconds_count{engine="gate-metrics"}`, "1")
	wantMetric(t, final, `noc_http_requests_total{route="/v1/map",status="200"}`, "6")
	if v := metricValue(t, final, `noc_http_request_duration_seconds_count{route="/v1/map"}`); v != "6" {
		t.Errorf("map route histogram count = %s, want 6", v)
	}
	if strings.Contains(final, `route="/v1/batch"`) {
		t.Error("exposition still carries a /v1/batch route label")
	}
	if v := metricValue(t, final, "noc_uptime_seconds"); v == "0" {
		t.Errorf("noc_uptime_seconds = %s, want > 0", v)
	}
	// Every finished job above published exactly its final event on its
	// stream log (the sync cache hits synthesize no job): 2 jobs, 2 events.
	wantMetric(t, final, "noc_stream_events_total", "2")
	wantMetric(t, final, "noc_cache_upgrades_total", "0")

	// Serve-then-improve: a streamed greedy request completes at admission
	// with a single done event; a streamed D1 anneal (seed 2 is pinned to
	// improve past its greedy base) additionally streams a mapped event,
	// at least one improvement, and upgrades the cache entry in place.
	seed := int64(2)
	resp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: designJSON(t, testDesign("metrics-stream")), Engine: "greedy", Mode: "stream",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("streamed greedy map = %d: %s", resp.StatusCode, body)
	}
	afterGreedy := scrapeMetrics(t, ts.URL)
	wantMetric(t, afterGreedy, "noc_stream_events_total", "3")
	wantMetric(t, afterGreedy, "noc_cache_upgrades_total", "0")

	resp, body = postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: designJSON(t, d1Design(t)), Engine: "anneal", Seed: &seed,
		Mode: "stream",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("streamed anneal map = %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	// Follow the stream to its final event; the job snapshot is read under
	// the service lock the final event was published and counted under.
	evs := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "")
	if final := evs[len(evs)-1]; final.Stage != StreamDone {
		t.Fatalf("streamed anneal ended with %+v, want done", final)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("streamed anneal after its final event: HTTP %d, %+v", code, st)
	}
	streamed := scrapeMetrics(t, ts.URL)
	if events := counterOf(t, streamed, "noc_stream_events_total"); events < 6 {
		// 3 from above + mapped + >=1 improved + done.
		t.Errorf("noc_stream_events_total = %v after an improving stream, want >= 6", events)
	}
	if upgrades := counterOf(t, streamed, "noc_cache_upgrades_total"); upgrades < 1 {
		t.Errorf("noc_cache_upgrades_total = %v after an improving stream, want >= 1", upgrades)
	}
	// Each of the two streamed requests timed its admission once; the
	// sync and gated requests above are not streams.
	wantMetric(t, streamed, "noc_stream_admit_seconds_count", "2")
	if sum := counterOf(t, streamed, "noc_stream_admit_seconds_sum"); sum <= 0 {
		t.Errorf("noc_stream_admit_seconds_sum = %v, want > 0", sum)
	}

	// Runtime health, read from runtime/metrics at scrape time. A forced
	// collection makes at least one GC pause certain.
	runtime.GC()
	streamed = scrapeMetrics(t, ts.URL)
	for _, name := range []string{"noc_go_goroutines", "noc_go_heap_objects_bytes", "noc_go_gc_pause_seconds_count"} {
		if v := counterOf(t, streamed, name); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}

	if path := os.Getenv("METRICS_SNAPSHOT_FILE"); path != "" {
		if err := os.WriteFile(path, []byte(streamed), 0o644); err != nil {
			t.Fatalf("write metrics snapshot: %v", err)
		}
		t.Logf("metrics snapshot written to %s", path)
	}
}

// counterOf parses one plain counter sample as a number.
func counterOf(t *testing.T, body, name string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(metricValue(t, body, name), "%g", &v); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return v
}

// TestMetricsSearchCounters maps with the real annealer through the service
// and checks the progress-event tap feeds the search counter families.
func TestMetricsSearchCounters(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	seed := int64(2)
	resp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: designJSON(t, testDesign("metrics-anneal")), Engine: "anneal", Seed: &seed,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/map = %d: %s", resp.StatusCode, body)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, name := range []string{
		`noc_search_moves_total{engine="anneal"}`,
		`noc_search_moves_accepted_total{engine="anneal"}`,
	} {
		if v := metricValue(t, out, name); v == "0" {
			t.Errorf("%s = 0, want > 0 after an anneal run", name)
		}
	}
}

// TestMetricsTimingsOnResponse checks the per-stage timing breakdown rides
// the response envelope for fresh runs and survives cache hits.
func TestMetricsTimingsOnResponse(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)

	for i, cached := range []bool{false, true} {
		resp, err := s.Map(t.Context(), testRequest("greedy", testDesign("timings-d")))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached != cached {
			t.Errorf("call %d: Cached = %v, want %v", i, resp.Cached, cached)
		}
		if resp.Timings == nil {
			t.Fatalf("call %d: response has no timings", i)
		}
		if resp.Timings.TotalMS <= 0 {
			t.Errorf("call %d: TotalMS = %v, want > 0", i, resp.Timings.TotalMS)
		}
		if resp.Timings.SearchMS > resp.Timings.TotalMS {
			t.Errorf("call %d: SearchMS %v exceeds TotalMS %v", i, resp.Timings.SearchMS, resp.Timings.TotalMS)
		}
	}
}

// TestMetricsConcurrentJobsAndScrapes hammers the shared registry from
// concurrent jobs, HTTP requests and scrapes; run under -race it proves the
// instrumentation adds no data races.
func TestMetricsConcurrentJobsAndScrapes(t *testing.T) {
	s := New(Config{Workers: 4})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Distinct designs force real runs; repeats hit the cache.
			d := testDesign(fmt.Sprintf("race-%d", i%4))
			resp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: designJSON(t, d), Engine: "greedy"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST /v1/map = %d: %s", resp.StatusCode, body)
			}
		}()
		go func() {
			defer wg.Done()
			scrapeMetrics(t, ts.URL)
		}()
	}
	wg.Wait()

	out := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, out, "noc_cache_misses_total"); v == "0" {
		t.Error("no cache misses recorded after 8 concurrent maps")
	}
}
