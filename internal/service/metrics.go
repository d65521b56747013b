package service

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"nocmap/internal/metrics"
	"nocmap/internal/search"
	"nocmap/internal/store"
)

// startedAt is the process start (package-load) instant: the anchor of the
// /healthz uptime report and the noc_uptime_seconds gauge, which is how a
// load balancer or a human tells a fresh restart from a long-lived healthy
// daemon.
var startedAt = time.Now()

// Timings breaks one mapping run's wall clock into pipeline stages, in
// milliseconds: time spent waiting for a worker (zero for in-process SDK
// runs), pre-processing the use-cases, running the search engine, and
// summarizing/verifying the result. Total covers prepare through summarize.
// On a cache hit the response carries the original run's timings.
type Timings struct {
	QueueMS     float64 `json:"queue_ms,omitempty"`
	PrepareMS   float64 `json:"prepare_ms"`
	SearchMS    float64 `json:"search_ms"`
	SummarizeMS float64 `json:"summarize_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// ms converts a duration for a Timings field.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serviceMetrics is the service's registered instrument set. Counter writes
// are single atomic adds, so the job pipeline's hot path pays nothing
// measurable; the pool and cache gauges read live service state at scrape
// time under the service mutex.
type serviceMetrics struct {
	reg *metrics.Registry

	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheEvictions *metrics.Counter
	cacheUpgrades  *metrics.Counter
	dedupJoins     *metrics.Counter
	memoHits       *metrics.Counter // repeated bodies answered by the request memo
	streamEvents   *metrics.Counter
	streamAdmit    *metrics.Histogram // POST /v1/map entry to the 202 of a streamed request

	jobs          *metrics.CounterVec   // by terminal status: done | failed
	engineSeconds *metrics.HistogramVec // end-to-end engine-run latency by engine

	httpRequests *metrics.CounterVec   // by route and status
	httpSeconds  *metrics.HistogramVec // handler latency by route

	storeGets     *metrics.CounterVec // store reads by backend
	storePuts     *metrics.CounterVec // store writes (puts and upgrades) by backend
	storeUpgrades *metrics.CounterVec // in-place replace-with-better writes by backend
	storeErrors   *metrics.CounterVec // failed store operations by backend

	searchImprovements *metrics.CounterVec // incumbent improvements by engine
	searchMoves        *metrics.CounterVec // moves tried by engine
	searchAccepted     *metrics.CounterVec // moves accepted by engine
	searchRestarts     *metrics.CounterVec // shrink-probe restarts by engine
	searchExactBounds  *metrics.CounterVec // runs that finished with a proven-tight bound, by engine

	searchLowerBound *metrics.GaugeVec // latest lower bound (switches) by engine
	searchGap        *metrics.GaugeVec // latest optimality gap by engine
}

// newServiceMetrics registers the service's metric families on reg. The
// gauges close over s, so one registry backs at most one Service.
func newServiceMetrics(reg *metrics.Registry, s *Service) *serviceMetrics {
	m := &serviceMetrics{
		reg: reg,

		cacheHits:      reg.Counter("noc_cache_hits_total", "Requests answered from the result cache."),
		cacheMisses:    reg.Counter("noc_cache_misses_total", "Requests that started a new engine run."),
		cacheEvictions: reg.Counter("noc_cache_evictions_total", "Results evicted from the LRU result cache."),
		cacheUpgrades:  reg.Counter("noc_cache_upgrades_total", "Cache entries replaced in place by a strictly better result from a streamed run."),
		dedupJoins:     reg.Counter("noc_dedup_joins_total", "Requests that joined an identical in-flight run (single-flight)."),
		memoHits:       reg.Counter("noc_request_memo_hits_total", "POST /v1/map bodies answered from the request memo without a decode (each also counts as a cache hit or a dedup join)."),
		streamEvents:   reg.Counter("noc_stream_events_total", "Events published on job event logs (serve-then-improve streams)."),
		streamAdmit: reg.Histogram("noc_stream_admit_seconds",
			"Server-side time to first result of a streamed request: POST /v1/map handler entry to its 202 written.",
			admitBuckets...),

		jobs: reg.CounterVec("noc_jobs_total", "Finished jobs by terminal status.", "status"),
		engineSeconds: reg.HistogramVec("noc_engine_duration_seconds",
			"End-to-end engine-run latency (prepare through summarize) by engine.", nil, "engine"),

		httpRequests: reg.CounterVec("noc_http_requests_total", "HTTP requests by route and status.", "route", "status"),
		httpSeconds: reg.HistogramVec("noc_http_request_duration_seconds",
			"HTTP handler latency by route.", nil, "route"),

		storeGets: reg.CounterVec("noc_store_gets_total",
			"Result-store reads by backend.", "backend"),
		storePuts: reg.CounterVec("noc_store_puts_total",
			"Result-store writes (puts and upgrade attempts) by backend.", "backend"),
		storeUpgrades: reg.CounterVec("noc_store_upgrades_total",
			"Result-store entries replaced in place by a strictly better result, by backend.", "backend"),
		storeErrors: reg.CounterVec("noc_store_errors_total",
			"Failed result-store operations by backend (each degrades to a cache miss).", "backend"),

		searchImprovements: reg.CounterVec("noc_search_improvements_total",
			"Strict incumbent improvements streamed by the engines.", "engine"),
		searchMoves: reg.CounterVec("noc_search_moves_total",
			"Annealing moves tried, from the engines' progress counters.", "engine"),
		searchAccepted: reg.CounterVec("noc_search_moves_accepted_total",
			"Annealing moves accepted, from the engines' progress counters.", "engine"),
		searchRestarts: reg.CounterVec("noc_search_restarts_total",
			"Random-restart placements probed on shrunk fabrics, by engine.", "engine"),
		searchExactBounds: reg.CounterVec("noc_search_exact_bounds_total",
			"Runs that finished with a proven-tight lower bound (the result is optimal in switch count), by engine.", "engine"),

		searchLowerBound: reg.GaugeVec("noc_search_lower_bound_switches",
			"Lower bound on the switch count of the latest finished run, by engine (seat bound, or the exact engine's branch-and-bound proof).", "engine"),
		searchGap: reg.GaugeVec("noc_search_optimality_gap",
			"Optimality gap (switches - bound) / bound of the latest finished run, by engine; 0 means the mapping attains the bound.", "engine"),
	}

	reg.GaugeFunc("noc_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(startedAt).Seconds() })
	reg.GaugeFunc("noc_workers", "Engine-run worker goroutines.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("noc_queue_capacity", "Bounded job-queue capacity (backpressure beyond it).",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("noc_queue_length", "Jobs waiting for a worker.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("noc_jobs_running", "Jobs currently executing on a worker.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.running)
		})
	reg.GaugeFunc("noc_cache_entries", "Results resident in the result store (local tier).",
		func() float64 { return float64(s.store.Len()) })
	registerRuntimeMetrics(reg)
	// The disk byte gauge registers only on a disk store, so a
	// memory-backed daemon's exposition stays free of an always-zero
	// series.
	if d, ok := s.store.(*store.Disk); ok {
		reg.GaugeFunc("noc_store_disk_bytes", "Bytes of result objects resident in the disk store.",
			func() float64 { return float64(d.Bytes()) })
	}
	return m
}

// admitBuckets are the bounds, in seconds, of noc_stream_admit_seconds:
// 250 µs to 1 s around a greedy admission of about 2 ms.
var admitBuckets = []float64{0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// gcPauseBuckets are the bounds, in seconds, of noc_go_gc_pause_seconds:
// 10 µs to 100 ms.
var gcPauseBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 0.1}

// registerRuntimeMetrics exports the process's runtime health, read from
// runtime/metrics at scrape time: goroutines, heap object bytes (the series
// perfbench samples for runtime.heap_peak_mb) and the GC pause
// distribution.
func registerRuntimeMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("noc_go_goroutines", "Live goroutines (runtime/metrics /sched/goroutines:goroutines).",
		func() float64 { return float64(readRuntime("/sched/goroutines:goroutines").Uint64()) })
	reg.GaugeFunc("noc_go_heap_objects_bytes",
		"Bytes of heap objects, live or not yet swept (runtime/metrics /memory/classes/heap/objects:bytes).",
		func() float64 { return float64(readRuntime("/memory/classes/heap/objects:bytes").Uint64()) })
	reg.HistogramFunc("noc_go_gc_pause_seconds",
		"Stop-the-world GC pauses since process start (runtime/metrics /sched/pauses/total/gc:seconds); the sum is a lower bound from the runtime's bucket edges.",
		gcPauseBuckets, func(counts []int64) float64 {
			return rebucket(readRuntime("/sched/pauses/total/gc:seconds").Float64Histogram(), gcPauseBuckets, counts)
		})
}

// readRuntime reads one runtime/metrics sample.
func readRuntime(name string) rtmetrics.Value {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return s[0].Value
}

// rebucket folds a runtime histogram into counts over the upper bounds
// (counts has one more slot, for +Inf). Each runtime bucket [lo, hi) lands
// in the first bound at or above hi, so no observation is counted below
// its value. It returns the sum of the buckets' lower edges, a lower bound
// on the sum of the observations (the runtime keeps no sum).
func rebucket(h *rtmetrics.Float64Histogram, bounds []float64, counts []int64) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		counts[sort.SearchFloat64s(bounds, hi)] += int64(n)
		if lo > 0 && !math.IsInf(lo, 1) {
			sum += float64(n) * lo
		}
	}
	return sum
}

// progressTap wraps a job's progress callback so every engine event also
// feeds the search metrics: one improvement count per StageImproved, and the
// run's cumulative move/accept/restart totals folded in at StageDone (the
// portfolio's member annealers each emit their own StageDone, so a portfolio
// run's totals land under engine="anneal", where the work happened). The
// caller's own callback, when present, still runs after the tap.
func (m *serviceMetrics) progressTap(next func(search.Event)) func(search.Event) {
	return func(e search.Event) {
		switch e.Stage {
		case search.StageImproved:
			m.searchImprovements.WithLabelValues(e.Engine).Inc()
		case search.StageDone:
			m.searchMoves.WithLabelValues(e.Engine).Add(e.Moves)
			m.searchAccepted.WithLabelValues(e.Engine).Add(e.Accepted)
			m.searchRestarts.WithLabelValues(e.Engine).Add(e.Restarts)
			if e.LowerBound > 0 {
				m.searchLowerBound.WithLabelValues(e.Engine).Set(float64(e.LowerBound))
				m.searchGap.WithLabelValues(e.Engine).Set(e.Gap)
			}
			if e.BoundExact {
				m.searchExactBounds.WithLabelValues(e.Engine).Inc()
			}
		}
		if next != nil {
			next(e)
		}
	}
}
