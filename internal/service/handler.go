package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
)

// MapRequest is the wire form of one mapping request. Design is the
// standard design interchange form (the format nocgen writes and nocmap
// reads), decoded in the same pass as the rest of the request; the
// remaining fields override the engine defaults. Pointer fields
// distinguish "absent" from an explicit zero.
type MapRequest struct {
	Design *traffic.DesignJSON `json:"design"`
	// Engine picks the search engine (default "greedy").
	Engine string `json:"engine,omitempty"`
	// Topology picks the interconnect family: "mesh" (default) or "torus".
	// When empty, a "topology" tag inside the design JSON applies. The
	// choice flows into the design's canonical digest, so requests on
	// different fabrics never share a cache entry.
	Topology string `json:"topology,omitempty"`
	// Seed, Seeds, Iters override search.DefaultOptions.
	Seed  *int64 `json:"seed,omitempty"`
	Seeds *int   `json:"seeds,omitempty"`
	Iters *int   `json:"iters,omitempty"`
	// Population and Generations size the population engines (ga, pso, abc);
	// Nodes is the exact engine's deterministic node budget.
	Population  *int `json:"population,omitempty"`
	Generations *int `json:"generations,omitempty"`
	Nodes       *int `json:"nodes,omitempty"`
	// FreqMHz, Slots, MaxDim override core.DefaultParams.
	FreqMHz *float64 `json:"freq_mhz,omitempty"`
	Slots   *int     `json:"slots,omitempty"`
	MaxDim  *int     `json:"max_dim,omitempty"`
	// TimeoutMS is the job deadline, measured from when a worker picks the
	// job up; an answer it cuts short is served as truncated, never stored.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes POST /v1/map return a job ID immediately (HTTP 202) instead
	// of the result; poll GET /v1/jobs/{id} for completion.
	Async bool `json:"async,omitempty"`
	// Mode selects the answer discipline. "stream" serves-then-improves:
	// the greedy result is computed inline and returned with HTTP 202 in
	// milliseconds while the requested engine keeps improving in the
	// background; incumbent improvements arrive over SSE on
	// GET /v1/jobs/{id}/events. Empty (or "sync") keeps the blocking
	// behavior. Mode and Async are mutually exclusive.
	Mode string `json:"mode,omitempty"`
}

// streaming reports whether the request asked for serve-then-improve mode.
func (mr *MapRequest) streaming() bool { return mr.Mode == "stream" }

// maxSearchWidth bounds the seeds and population fields of one request.
// The portfolio starts one goroutine per seed and the population engines
// size their member slices from population up front, so an unbounded value
// lets one request exhaust the daemon's memory. The limit sits far above
// every in-repo use (the CLI's 4 seeds, the default population of 16).
const maxSearchWidth = 256

// Effort limits bound the iters, generations and nodes fields of one
// request. Unbounded, an anneal of 1<<30 moves without a deadline holds its
// worker for hours and then blocks shutdown. Each limit sits far above
// every in-repo use (1500 iters, 40 generations, 500000 nodes).
const (
	maxIters       = 100000
	maxGenerations = 10000
	maxNodes       = 10000000
)

// Fabric limits bound the slots and max_dim fields of one request, before
// anything is allocated from them. A slot table costs ⌈slots/64⌉ words per
// link in every use-case group's state, so "slots": 2000000000 would ask
// for about 250 MB per link per group. The growth sequence lists about
// max_dim²/2 shapes and sorts them by insertion, a cost that grows as
// max_dim⁴, and each fabric tried builds its own route table. Each limit
// sits far above every in-repo use (tables of at most 128 slots, growth to
// 20 by default and to 40 in the largest runs).
const (
	maxSlots   = 1024
	maxMeshDim = 64
)

// ToRequest validates the wire form into a service Request.
func (mr *MapRequest) ToRequest() (Request, error) {
	var req Request
	if mr.Design == nil {
		return req, fmt.Errorf("service: request has no design")
	}
	d, err := mr.Design.Design()
	if err != nil {
		return req, err
	}
	req.Design = d
	req.Engine = mr.Engine
	if req.Engine == "" {
		req.Engine = "greedy"
	}
	req.Params = core.DefaultParams()
	// Resolve the fabric: the request field wins, then the design's own tag.
	tag := mr.Topology
	if tag == "" {
		tag = d.Topology
	}
	kind, err := topology.ParseKind(tag)
	if err != nil {
		return req, fmt.Errorf("service: %w", err)
	}
	req.Params.Topology = topology.Spec{Kind: kind}
	d.Topology = req.Params.Topology.CanonicalID()
	req.Opts = search.DefaultOptions()
	if mr.Seed != nil {
		req.Opts.Seed = *mr.Seed
	}
	if mr.Seeds != nil {
		if *mr.Seeds > maxSearchWidth {
			return req, fmt.Errorf("service: seeds %d exceeds the limit of %d", *mr.Seeds, maxSearchWidth)
		}
		req.Opts.Seeds = *mr.Seeds
	}
	if mr.Iters != nil {
		if *mr.Iters > maxIters {
			return req, fmt.Errorf("service: iters %d exceeds the limit of %d", *mr.Iters, maxIters)
		}
		req.Opts.Iters = *mr.Iters
	}
	if mr.Population != nil {
		if *mr.Population > maxSearchWidth {
			return req, fmt.Errorf("service: population %d exceeds the limit of %d", *mr.Population, maxSearchWidth)
		}
		req.Opts.Population = *mr.Population
	}
	if mr.Generations != nil {
		if *mr.Generations > maxGenerations {
			return req, fmt.Errorf("service: generations %d exceeds the limit of %d", *mr.Generations, maxGenerations)
		}
		req.Opts.Generations = *mr.Generations
	}
	if mr.Nodes != nil {
		if *mr.Nodes > maxNodes {
			return req, fmt.Errorf("service: nodes %d exceeds the limit of %d", *mr.Nodes, maxNodes)
		}
		req.Opts.Nodes = *mr.Nodes
	}
	if mr.FreqMHz != nil {
		req.Params.FreqMHz = *mr.FreqMHz
	}
	if mr.Slots != nil {
		if *mr.Slots > maxSlots {
			return req, fmt.Errorf("service: slots %d exceeds the limit of %d", *mr.Slots, maxSlots)
		}
		req.Params.SlotTableSize = *mr.Slots
	}
	if mr.MaxDim != nil {
		if *mr.MaxDim > maxMeshDim {
			return req, fmt.Errorf("service: max_dim %d exceeds the limit of %d", *mr.MaxDim, maxMeshDim)
		}
		req.Params.MaxMeshDim = *mr.MaxDim
	}
	if mr.TimeoutMS > 0 {
		req.Timeout = time.Duration(mr.TimeoutMS) * time.Millisecond
	}
	return req, nil
}

// NewHandler returns the HTTP facade of the service. The blessed surface is
// versioned under /v1:
//
//	POST /v1/map       — map one design; {"async":true} returns 202 + job ID;
//	                     {"mode":"stream"} serves the greedy result in a 202
//	                     immediately and improves in the background
//	GET  /v1/jobs/{id} — job state (queued|running|done|failed) and result
//	GET  /v1/jobs/{id}/events — serve-then-improve event stream (SSE;
//	                     resume with ?after or Last-Event-ID)
//	GET  /v1/designs/{digest} — the cached result for a request digest
//	                     (404 when the store holds none, 503 once closed)
//	GET  /v1/stats     — cache hit/miss counters, store and pool gauges
//	GET  /v1/metrics   — Prometheus text exposition of the service metrics
//	GET  /v1/version   — build identity (module version, VCS revision)
//	GET  /healthz      — liveness, build version, uptime (unversioned on
//	                     purpose: probe configs outlive API revisions)
//
// Every route runs behind the observability middleware: the request is
// tagged with an X-Request-ID (caller-supplied or generated, echoed on the
// response and stamped into job records), counted in
// noc_http_requests_total{route,status}, timed into
// noc_http_request_duration_seconds{route}, and logged structurally.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	// instrument wraps a handler with the observability middleware. route is
	// the canonical pattern ("/v1/jobs/{id}"), not the concrete path, so
	// metric cardinality stays bounded.
	instrument := func(route string, h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
			if id == "" {
				id = NewRequestID()
			}
			w.Header().Set("X-Request-ID", id)
			r = r.WithContext(ContextWithRequestID(r.Context(), id))
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			h(rec, r)
			elapsed := time.Since(start)
			s.met.httpRequests.WithLabelValues(route, strconv.Itoa(rec.status)).Inc()
			s.met.httpSeconds.WithLabelValues(route).Observe(elapsed.Seconds())
			s.log.Info("http request", "request_id", id, "method", r.Method,
				"route", route, "path", r.URL.Path, "status", rec.status,
				"duration_ms", ms(elapsed))
		}
	}
	// handle mounts one instrumented route.
	handle := func(method, route string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+route, instrument(route, h))
	}

	handle("POST", "/v1/map", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		d := bodyPool.Get().(*bodyDecoder)
		defer d.release()
		readErr := d.read(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		body := d.buf.Bytes()
		var h uint64
		if readErr == nil {
			h = s.memo.hash(body)
			if resp, ok, err := s.mapRepeat(r.Context(), h, body); ok {
				writeAnswer(w, resp, err)
				return
			}
		}
		var mr MapRequest
		if err := d.decodeRequest(readErr, &mr); err != nil {
			writeDecodeError(w, err)
			return
		}
		req, err := mr.ToRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req.RequestID = RequestIDFrom(r.Context())
		switch mr.Mode {
		case "", "sync", "stream":
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: unknown mode %q (valid: sync, stream)", mr.Mode))
			return
		}
		if mr.streaming() {
			if mr.Async {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: async and stream mode are mutually exclusive"))
				return
			}
			st, err := s.SubmitStream(r.Context(), req)
			if err != nil {
				writeError(w, statusOf(err), err)
				return
			}
			writeJSON(w, http.StatusAccepted, st)
			s.met.streamAdmit.Observe(time.Since(start).Seconds())
			return
		}
		if mr.Async {
			id, err := s.Submit(req)
			if err != nil {
				writeError(w, statusOf(err), err)
				return
			}
			st, _ := s.Job(id)
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		resp, err := s.Map(r.Context(), req)
		if err == nil && resp.Cached && readErr == nil {
			// A sync body answered from the store is a proven repeat, and
			// a stored answer carries the key it was stored under.
			s.memo.put(h, body, resp.Key)
		}
		writeAnswer(w, resp, err)
	})

	handle("GET", "/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	handle("GET", "/v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveJobEvents(s, w, r)
	})

	handle("GET", "/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	handle("GET", "/v1/designs/{digest}", func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		resp, ok, err := s.Design(r.Context(), digest)
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for digest %q", digest))
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	handle("GET", "/v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, BuildVersion())
	})

	handle("GET", "/v1/metrics", s.Metrics().Handler().ServeHTTP)

	handle("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{
			OK:            true,
			Version:       BuildVersion(),
			StartedAt:     startedAt.UTC().Format(time.RFC3339),
			UptimeSeconds: time.Since(startedAt).Seconds(),
		})
	})

	return mux
}

// healthResponse is the GET /healthz body: liveness, build identity, and the
// process start/uptime pair that tells a fresh restart from a long-running
// healthy daemon.
type healthResponse struct {
	OK      bool        `json:"ok"`
	Version VersionInfo `json:"version"`
	// StartedAt is the process start time, RFC 3339 UTC.
	StartedAt string `json:"started_at"`
	// UptimeSeconds is the seconds elapsed since StartedAt.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// statusRecorder captures the status code a handler writes so the middleware
// can label metrics and logs with it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the SSE events route) to the wrapped
// writer, preserving its http.Flusher capability through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// maxBodyBytes bounds a POST body. It sits far above any real request (a
// 20-use-case design of ~900 flows is ~55 KB) yet keeps one request from
// pinning the heap. A /v1/map body is read whole into a pooled buffer, so
// this is also the most one request can make that buffer hold; buffers
// grown past maxPooledBody are not pooled again.
const maxBodyBytes = 8 << 20

// writeDecodeError answers a POST /v1/map body the decode rejected: 413
// for a body over maxBodyBytes, 400 otherwise. The body is decoded
// strictly, design included: unknown fields at every level of nesting are
// rejected. bodyDecoder.decodeRequest makes one pass of a byte-level lexer
// over the pooled buffer and hands everything outside its canonical subset
// to the stdlib decode, so the verdict and error are encoding/json's.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
}

// writeAnswer writes the reply to a sync POST /v1/map: the response, or
// the error's status.
func writeAnswer(w http.ResponseWriter, resp *Response, err error) {
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusOf maps service errors to HTTP status codes. Unrecognized errors map
// to 400: at this point the request has been admitted, so what remains are
// engine-level rejections of the request's content (bad parameters, invalid
// prepared use-cases), which are the client's to fix.
func statusOf(err error) int {
	var inf *core.InfeasibleError
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &inf):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers already sent; nothing to report
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
