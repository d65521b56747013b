package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/usecase"
)

// This file is the serve-then-improve half of the service: a mapping
// request in stream mode answers *now* with the greedy result and refines
// *later* on the worker pool, publishing every strict incumbent improvement
// on the job's event log. The three invariants the tests pin:
//
//   - Sequence numbers on one job's stream are strictly increasing (seq k
//     is the k-th event), and a final event (done | failed) is always last.
//   - Costs across result-bearing events are strictly improving: the tap
//     drops engine events that do not beat the job-level incumbent (the
//     portfolio's members each improve their own chains; only pool-wide
//     strict improvements stream).
//   - The cache entry for the job's key only ever gets better: interim
//     results are installed with a compare-and-swap on strictly-better
//     cost, and a job that fails or is truncated evicts them.

// Stream event stages, in the order one streamed job emits them.
const (
	// StreamMapped is the first event of a streamed job: the inline greedy
	// result, served before the background engine starts.
	StreamMapped = "mapped"
	// StreamImproved announces a strictly better incumbent found by the
	// background engine.
	StreamImproved = "improved"
	// StreamDone is the final event of a successful job; its Response is
	// byte-identical to the finished job's GET /v1/jobs/{id} result.
	StreamDone = "done"
	// StreamFailed is the final event of a failed job.
	StreamFailed = "failed"
)

// StreamEvent is one anytime-results notification on a job's event log,
// served over SSE at GET /v1/jobs/{id}/events.
type StreamEvent struct {
	// Seq is the monotonically increasing incumbent sequence number,
	// starting at 1; event seq k is the k-th event of the job.
	Seq int64 `json:"seq"`
	// Stage is one of mapped | improved | done | failed.
	Stage string `json:"stage"`
	// Engine names the engine that produced this incumbent ("greedy" for
	// the first event of a streamed job, the member engine for
	// improvements).
	Engine string `json:"engine"`
	// Cost is the incumbent's score under the job's cost weights (lower is
	// better); strictly decreasing across the result-bearing events of one
	// job.
	Cost float64 `json:"cost,omitempty"`
	// Counts are the emitting engine's cumulative search-effort counters at
	// the time of the event.
	Counts search.Counts `json:"counts"`
	// Response carries the incumbent's full result summary; nil only on
	// failed events.
	Response *Response `json:"response,omitempty"`
	// Error is set on failed events.
	Error string `json:"error,omitempty"`
	// Final marks the job's last event; the stream closes after it.
	Final bool `json:"final,omitempty"`
}

// jobStream is one job's append-only event log plus the change broadcast
// its readers block on. It has its own mutex — events are appended from the
// worker running the job while SSE handlers read concurrently — and must
// never be locked while the service mutex is wanted (the converse order,
// service mutex then stream, is allowed).
type jobStream struct {
	mu     sync.Mutex
	events []StreamEvent
	// bestCost is the job-level incumbent cost; only strictly better
	// results may append result-bearing events.
	bestCost float64
	closed   bool
	// change is closed and replaced on every append, waking every waiter.
	change chan struct{}
}

func newJobStream() *jobStream {
	return &jobStream{bestCost: math.Inf(1), change: make(chan struct{})}
}

// append assigns the next sequence number and publishes e. Result-bearing
// events must strictly beat the incumbent cost; others (failures) pass
// unconditionally. Appends after a final event are dropped. Reports whether
// the event was published.
func (st *jobStream) append(e StreamEvent) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	if e.Response != nil {
		if e.Cost > st.bestCost-store.CostEps && !e.Final {
			return false // not a strict job-level improvement
		}
		if e.Cost < st.bestCost {
			st.bestCost = e.Cost
		}
	}
	e.Seq = int64(len(st.events)) + 1
	st.events = append(st.events, e)
	if e.Final {
		st.closed = true
	}
	close(st.change)
	st.change = make(chan struct{})
	return true
}

// wouldImprove reports whether cost strictly beats the stream's incumbent —
// the cheap pre-check the tap runs before paying for summarization.
func (st *jobStream) wouldImprove(cost float64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.closed && cost < st.bestCost-store.CostEps
}

// next returns the events with Seq > after and whether the stream is
// complete. When nothing new is available it instead returns the channel
// that closes on the next append.
func (st *jobStream) next(after int64) ([]StreamEvent, bool, <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if int64(len(st.events)) > after {
		evs := make([]StreamEvent, int64(len(st.events))-after)
		copy(evs, st.events[after:])
		return evs, st.closed, nil
	}
	if st.closed {
		return nil, true, nil
	}
	return nil, false, st.change
}

// lastSeq returns the sequence number of the latest event (0 if none).
func (st *jobStream) lastSeq() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return int64(len(st.events))
}

// latest returns the most recent result-bearing event's response, or nil.
func (st *jobStream) latest() *Response {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.events) - 1; i >= 0; i-- {
		if st.events[i].Response != nil {
			return st.events[i].Response
		}
	}
	return nil
}

// costOfResult scores a wire Result under the weights the producing request
// ran with: the identical scalar the engines minimize, recomputed from the
// summary's fields (CostWeights.OfParts reads exactly the switch count and
// the two load statistics the summary carries, so no extra wire field is
// needed to compare cache entries).
func costOfResult(r Result, w search.CostWeights) float64 {
	return w.OfParts(r.Switches, core.Stats{
		MaxLinkUtil:   r.MaxLinkUtil,
		AvgMeshHops:   r.AvgMeshHops,
		SlotsReserved: r.SlotsReserved,
	})
}

// SubmitStream admits req in serve-then-improve mode: the greedy engine
// runs inline (bounded by ctx) and its feasible result is available on the
// returned snapshot within milliseconds, while the requested engine keeps
// improving on the worker pool under the job's own deadline. Strict
// incumbent improvements append to the job's event log (GET
// /v1/jobs/{id}/events) and upgrade the cache entry in place, and a job
// that fails leaves no entry behind.
//
// Admission is Map's: an identical in-flight job is joined — concurrent
// streamers share one run and one event log — and a stored answer returns
// an already-finished job whose log holds a single done event. A joined
// sync or async job is not streamed: its snapshot has no result until it
// finishes, and its log holds only the final event.
func (s *Service) SubmitStream(ctx context.Context, req Request) (JobStatus, error) {
	j, _, err := s.admit(ctx, req, modeStream)
	if err != nil {
		return JobStatus{}, err
	}
	st, _ := s.Job(j.ID)
	return st, nil
}

// serveGreedy runs a streamed job's first incumbent, the greedy
// constructive pass, inline on the admitting goroutine so the answer does
// not wait for a worker. When greedy is the requested engine its result is
// final and is returned for finish. Otherwise it becomes the job's mapped
// event and the key's interim store entry, and the worker improves from it
// (search.Options.Base) on its evaluator (search.Options.BaseEvaluator)
// instead of mapping the design again.
func (s *Service) serveGreedy(ctx context.Context, j *Job) (*Response, error) {
	req := j.req
	start := time.Now()
	prep, err := usecase.Prepare(req.Design)
	if err != nil {
		return nil, err
	}
	j.prep = prep
	prepMS := ms(time.Since(start))
	searchStart := time.Now()
	gres, gev, err := core.MapWithEvaluator(ctx, prep, req.Design.NumCores(), req.Params)
	if err != nil {
		return nil, err
	}
	first := &Response{Key: j.Key, Engine: req.Engine, Result: SummarizeResult(req.Design.Name, prep, gres)}
	if req.Engine == "greedy" {
		first.Timings = &Timings{
			PrepareMS: prepMS,
			SearchMS:  ms(time.Since(searchStart)),
			TotalMS:   ms(time.Since(start)),
		}
		return first, nil
	}
	cost := costOfResult(first.Result, req.Opts.Weights)
	s.appendEvent(j, StreamEvent{Stage: StreamMapped, Engine: "greedy", Cost: cost, Response: first})
	s.storeUpgrade(j.Key, first, cost)
	j.base, j.baseEval = gres, gev
	return nil, nil
}

// appendEvent publishes one event on the job's log and counts it. Returns
// whether the log accepted it.
func (s *Service) appendEvent(j *Job, e StreamEvent) bool {
	if !j.stream.append(e) {
		return false
	}
	s.met.streamEvents.Inc()
	return true
}

// isExpiry reports whether err is a context expiry — the signal of a job
// deadline elapsing rather than the engine rejecting the problem.
func isExpiry(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func errUnknownJob(id string) error { return fmt.Errorf("service: unknown job %q", id) }

// streamTap turns a streamed job's engine progress events into stream
// events and cache upgrades. Only strict job-level incumbent improvements
// pass: a portfolio member improving its own chain below the pool's best is
// filtered, so the log's costs are strictly decreasing. The callback runs
// serialized on the searching goroutine (the portfolio serializes its
// members), so appends for one job never race each other.
func (s *Service) streamTap(j *Job) func(search.Event) {
	return func(e search.Event) {
		if e.Stage != search.StageImproved || e.Result == nil {
			return
		}
		if !j.stream.wouldImprove(e.Cost) {
			return
		}
		resp := &Response{
			Key: j.Key, Engine: j.req.Engine,
			Result: SummarizeResult(j.req.Design.Name, j.prep, e.Result),
		}
		if !s.appendEvent(j, StreamEvent{
			Stage: StreamImproved, Engine: e.Engine, Cost: e.Cost, Counts: e.Counts, Response: resp,
		}) {
			return
		}
		// The store entry only ever gets better: the CAS inside
		// UpgradeIfBetter rejects anything a concurrent writer already beat.
		s.storeUpgrade(j.Key, resp, e.Cost)
		s.log.Debug("incumbent improved", "request_id", j.RequestID, "job", j.ID,
			"engine", e.Engine, "cost", e.Cost, "switches", e.Switches)
	}
}

// WaitEvents blocks until the job has events past after, its stream
// completes, or ctx expires; it returns the new events (possibly none on a
// completed stream) and whether the stream is complete. Unknown jobs and
// expired contexts report an error.
func (s *Service) WaitEvents(ctx context.Context, id string, after int64) ([]StreamEvent, bool, error) {
	s.mu.Lock()
	j, found := s.jobs[id]
	s.mu.Unlock()
	if !found {
		return nil, false, errUnknownJob(id)
	}
	for {
		evs, done, change := j.stream.next(after)
		if evs != nil || done {
			return evs, done, nil
		}
		select {
		case <-change:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}
