package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// d1Design returns the D1 benchmark, the smallest design the annealer
// reliably improves past its greedy base on pinned seeds.
func d1Design(t *testing.T) *traffic.Design {
	t.Helper()
	d, err := bench.ByName("D1")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// d1StreamRequest is a streamed anneal request on D1 with the pinned seed
// the search tests prove improves past the greedy base.
func d1StreamRequest(t *testing.T) Request {
	req := testRequest("anneal", d1Design(t))
	req.Opts.Seed = 2
	return req
}

// collectStream drains the job's event log through WaitEvents until the
// final event or the deadline.
func collectStream(t *testing.T, s *Service, id string) []StreamEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var evs []StreamEvent
	var after int64
	for {
		batch, done, err := s.WaitEvents(ctx, id, after)
		if err != nil {
			t.Fatalf("WaitEvents(%s, %d): %v", id, after, err)
		}
		evs = append(evs, batch...)
		if n := len(batch); n > 0 {
			after = batch[n-1].Seq
		}
		if done {
			return evs
		}
	}
}

// TestSubmitStreamLifecycle pins the serve-then-improve contract at the
// service level: the admission returns with the greedy incumbent already
// published, sequence numbers count 1,2,3,..., result-bearing costs
// strictly improve, the log ends with exactly one final done event, and
// the finished job reports the upgraded result — byte-identical to both
// the final stream event and the cache entry, never the greedy snapshot.
func TestSubmitStreamLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	st, err := s.SubmitStream(context.Background(), d1StreamRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stream {
		t.Errorf("streamed job not marked Stream: %+v", st)
	}
	if st.LastSeq < 1 {
		t.Errorf("admission returned before the greedy incumbent was published: LastSeq=%d", st.LastSeq)
	}
	if st.Result == nil {
		t.Fatal("streamed admission carried no anytime result")
	}

	evs := collectStream(t, s, st.ID)
	if len(evs) < 3 {
		t.Fatalf("want mapped + >=1 improved + done on D1 seed 2, got %d events: %+v", len(evs), evs)
	}
	if evs[0].Stage != StreamMapped || evs[0].Engine != "greedy" {
		t.Errorf("first event is not the greedy base: %+v", evs[0])
	}
	lastCost := evs[0].Cost
	for i, e := range evs {
		if e.Seq != int64(i)+1 {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Final != (i == len(evs)-1) {
			t.Errorf("event %d Final=%v", i, e.Final)
		}
		if e.Stage == StreamImproved {
			if e.Response == nil {
				t.Fatalf("improved event %d has no response", i)
			}
			if e.Cost >= lastCost {
				t.Errorf("event %d cost %v does not improve on %v", i, e.Cost, lastCost)
			}
		}
		if e.Response != nil {
			lastCost = e.Cost
		}
	}
	final := evs[len(evs)-1]
	if final.Stage != StreamDone || final.Response == nil {
		t.Fatalf("final event: %+v", final)
	}
	if final.Cost >= evs[0].Cost {
		t.Errorf("background anneal never improved on the greedy base: %v >= %v", final.Cost, evs[0].Cost)
	}

	// The finished job reports the upgraded result (satellite regression):
	// identical bytes to the final event's response and to the cache entry.
	done, ok := s.Job(st.ID)
	if !ok || done.State != StateDone {
		t.Fatalf("job after stream: %+v", done)
	}
	jobJSON, _ := json.Marshal(done.Result.Result)
	finalJSON, _ := json.Marshal(final.Response.Result)
	if string(jobJSON) != string(finalJSON) {
		t.Errorf("finished job result diverges from the final stream event:\n%s\nvs\n%s", jobJSON, finalJSON)
	}
	if done.Result.Result.Switches == evs[0].Response.Result.Switches &&
		string(jobJSON) == mustJSON(t, evs[0].Response.Result) {
		t.Error("finished job still reports the greedy snapshot")
	}
	cached, ok, err := s.Design(context.Background(), st.Key)
	if err != nil || !ok {
		t.Fatalf("no cache entry for the streamed job: ok=%v err=%v", ok, err)
	}
	cacheJSON, _ := json.Marshal(cached.Result)
	if string(cacheJSON) != string(jobJSON) {
		t.Errorf("cache entry diverges from the finished job:\n%s\nvs\n%s", cacheJSON, jobJSON)
	}
	if got := testCounterValue(t, s, "noc_cache_upgrades_total"); got < 1 {
		t.Errorf("noc_cache_upgrades_total = %v after an improving stream, want >= 1", got)
	}
}

// baseEngine reports the Options each run receives, then anneals.
type baseEngine struct {
	name string
	seen chan search.Options
}

func (e baseEngine) Name() string { return e.name }

func (e baseEngine) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	e.seen <- opts
	return search.Anneal{}.Search(ctx, prep, numCores, p, opts)
}

// TestStreamHandsOverGreedyBase pins the serve-then-improve handoff: the
// worker of a streamed job searches from the greedy result the stream
// already served (Options.Base, summarizing to the first event's bytes) on
// the evaluator that built it (Options.BaseEvaluator, of the base's
// fabric), the finished job keeps no reference to either, a synchronous
// run gets no base, and the streamed anneal ends on the synchronous
// anneal's bytes.
func TestStreamHandsOverGreedyBase(t *testing.T) {
	seen := make(chan search.Options, 1)
	search.Register("stream-base", func() search.Engine { return baseEngine{name: "stream-base", seen: seen} })
	s := New(Config{Workers: 1})
	defer s.Close()
	req := d1StreamRequest(t)
	req.Engine = "stream-base"
	st, err := s.SubmitStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	evs := collectStream(t, s, st.ID)
	opts := <-seen
	base := opts.Base
	if base == nil {
		t.Fatal("the streamed job's engine ran without Options.Base")
	}
	if ev := opts.BaseEvaluator; ev == nil || ev.Topology() != base.Mapping.Topology {
		t.Errorf("Options.BaseEvaluator = %v, want the evaluator of the base's fabric %v", ev, base.Mapping.Topology)
	}
	prep, err := usecase.Prepare(req.Design)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, SummarizeResult(req.Design.Name, prep, base)), mustJSON(t, evs[0].Response.Result); got != want {
		t.Errorf("Options.Base summarizes to\n%s\nthe first streamed event is\n%s", got, want)
	}
	s.mu.Lock()
	held, heldEval := s.jobs[st.ID].base, s.jobs[st.ID].baseEval
	s.mu.Unlock()
	if held != nil || heldEval != nil {
		t.Error("the finished job still holds the greedy base or its evaluator")
	}
	if _, err := s.Map(context.Background(), testRequest("stream-base", testDesign("sync-base"))); err != nil {
		t.Fatal(err)
	}
	if o := <-seen; o.Base != nil || o.BaseEvaluator != nil {
		t.Error("a synchronous run got an Options.Base or Options.BaseEvaluator")
	}

	streamed := New(Config{Workers: 1})
	defer streamed.Close()
	st, err = streamed.SubmitStream(context.Background(), d1StreamRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	evs = collectStream(t, streamed, st.ID)
	direct := New(Config{Workers: 1})
	defer direct.Close()
	resp, err := direct.Map(context.Background(), d1StreamRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, evs[len(evs)-1].Response.Result), mustJSON(t, resp.Result); got != want {
		t.Errorf("streamed anneal ended on\n%s\nthe synchronous anneal on\n%s", got, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// testCounterValue scrapes one plain counter from the service's registry.
func testCounterValue(t *testing.T, s *Service, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var v float64
	fmt.Sscanf(metricValue(t, rec.Body.String(), name), "%g", &v)
	return v
}

// TestSubmitStreamGreedyFinishesInline pins that a streamed request whose
// engine is greedy itself completes at admission: one final done event, no
// worker involved.
func TestSubmitStreamGreedyFinishesInline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	st, err := s.SubmitStream(context.Background(), testRequest("greedy", testDesign("stream-greedy")))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("greedy stream not done at admission: %+v", st)
	}
	evs := collectStream(t, s, st.ID)
	if len(evs) != 1 || evs[0].Stage != StreamDone || !evs[0].Final || evs[0].Seq != 1 {
		t.Fatalf("greedy stream log: %+v", evs)
	}
}

// TestSubmitStreamJoinsFlight pins the admission order: a second identical
// streamed request while the first is still improving joins the live job
// (same ID, same event log) instead of being served the interim cache entry
// as a synthesized done job, and so does a synchronous Map, which returns
// the stream's final answer.
func TestSubmitStreamJoinsFlight(t *testing.T) {
	gate := make(chan struct{})
	registerGate("stream-join", gate)
	s := New(Config{Workers: 1})
	defer s.Close()

	req := testRequest("stream-join", testDesign("stream-join"))
	first, err := s.SubmitStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.SubmitStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Errorf("identical streamed request did not join the in-flight job: %s vs %s", second.ID, first.ID)
	}
	// A synchronous Map on the same key meanwhile joins the live job: the
	// interim greedy entry in the store is not the key's answer.
	mapped := make(chan *Response, 1)
	go func() {
		resp, err := s.Map(context.Background(), req)
		if err != nil {
			t.Error(err)
		}
		mapped <- resp
	}()
	waitFor(t, "the Map to join the live stream", func() bool { return s.Stats().Deduped == 2 })
	close(gate)
	evs := collectStream(t, s, first.ID)
	last := evs[len(evs)-1]
	if last.Stage != StreamDone {
		t.Fatalf("stream log after join: %+v", evs)
	}
	resp := <-mapped
	if resp == nil {
		t.FailNow()
	}
	if resp.Cached || resp != last.Response {
		t.Errorf("concurrent Map on a streaming key got %+v, want the stream's final response %+v", resp, last.Response)
	}
}

// readGate is a store whose first Get after arming parks twice: before it
// reads (entered closes, then it waits for read) and after a miss (missed
// closes, then it waits for release).
type readGate struct {
	store.Store
	armed                          atomic.Bool
	entered, read, missed, release chan struct{}
}

func newReadGate() *readGate {
	return &readGate{Store: store.NewMemory(16), entered: make(chan struct{}),
		read: make(chan struct{}), missed: make(chan struct{}), release: make(chan struct{})}
}

func (g *readGate) Get(ctx context.Context, digest string) (store.Entry, bool, error) {
	if !g.armed.CompareAndSwap(true, false) {
		return g.Store.Get(ctx, digest)
	}
	close(g.entered)
	<-g.read
	e, ok, err := g.Store.Get(ctx, digest)
	if !ok && err == nil {
		close(g.missed)
		<-g.release
	}
	return e, ok, err
}

// TestStreamSingleFlightAcrossFinish is TestSingleFlightAcrossFinish for a
// streamed request: a synchronous run of the same key starts while the
// stream is about to read the store, and stores its answer and leaves the
// flight table after the stream's read missed. The stream must be served
// that answer, not run the engine a second time.
func TestStreamSingleFlightAcrossFinish(t *testing.T) {
	gate := make(chan struct{})
	runs := registerGate("gate-stream-finish", gate)
	st := newReadGate()
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()

	req := testRequest("gate-stream-finish", testDesign("stream-finish"))
	st.armed.Store(true)
	streamed := make(chan JobStatus, 1)
	go func() {
		js, err := s.SubmitStream(context.Background(), req)
		if err != nil {
			t.Error(err)
		}
		streamed <- js
	}()
	<-st.entered
	mapped := make(chan *Response, 1)
	go func() {
		r, err := s.Map(context.Background(), req)
		if err != nil {
			t.Error(err)
		}
		mapped <- r
	}()
	waitFor(t, "the synchronous run to start", func() bool { return runs.Load() == 1 })
	close(st.read)
	<-st.missed
	close(gate)
	a := <-mapped
	close(st.release)
	js := <-streamed
	if a == nil || js.ID == "" {
		t.FailNow()
	}
	evs := collectStream(t, s, js.ID)
	if got := s.Stats().JobsDone; got != 1 || runs.Load() != 1 {
		t.Errorf("a sync and a streamed request cost %d jobs and %d engine runs, want 1 and 1", got, runs.Load())
	}
	final := evs[len(evs)-1].Response
	if final == nil || !final.Cached {
		t.Fatalf("streamed request not answered from the store: %+v", evs)
	}
	if got, want := mustJSON(t, final.Result), mustJSON(t, a.Result); got != want {
		t.Errorf("stream answer differs from the run's:\n%s\nvs\n%s", got, want)
	}
}

// fillPool occupies the single worker and the single queue slot of a
// Workers: 1, QueueDepth: 1 service with jobs of the gated engine.
func fillPool(t *testing.T, s *Service, engine string) {
	t.Helper()
	if _, err := s.Submit(testRequest(engine, testDesign(engine+"-a"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a job to occupy the worker", func() bool { return s.Stats().JobsRunning == 1 })
	if _, err := s.Submit(testRequest(engine, testDesign(engine+"-b"))); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedStreamLeavesNoEntry pins that a streamed admission which
// stored its greedy incumbent and then never reached the queue leaves
// nothing under its digest: a later Map runs the engine.
func TestAbandonedStreamLeavesNoEntry(t *testing.T) {
	gate := make(chan struct{})
	registerGate("gate-stream-abandon", gate)
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	fillPool(t, s, "gate-stream-abandon")

	req := testRequest("gate-stream-abandon", testDesign("stream-abandon"))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.SubmitStream(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("streamed admission on a full queue returned %v, want DeadlineExceeded", err)
	}
	close(gate)
	resp, err := s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Timings == nil {
		t.Errorf("Map after an abandoned stream was served its interim entry: cached=%v timings=%v", resp.Cached, resp.Timings)
	}
}

// TestAbandonedStreamLeavesNoDiskEntry is the durable form: a streamed
// admission blocked on the full queue when Close refuses it leaves no
// entry for its digest once the store directory is reopened.
func TestAbandonedStreamLeavesNoDiskEntry(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	registerGate("gate-stream-close", gate)
	d, err := store.OpenDisk(dir, store.DiskOptions{Codec: ResponseCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 1, Store: d})
	fillPool(t, s, "gate-stream-close")

	req := testRequest("gate-stream-close", testDesign("stream-close"))
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() {
		_, err := s.SubmitStream(context.Background(), req)
		admitted <- err
	}()
	waitFor(t, "the interim entry to be stored", func() bool {
		_, ok, _ := s.Design(context.Background(), key)
		return ok
	})
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	if err := <-admitted; !errors.Is(err, ErrClosed) {
		t.Errorf("streamed admission during Close returned %v, want ErrClosed", err)
	}
	close(gate)
	<-closed

	d, err = store.OpenDisk(dir, store.DiskOptions{Codec: ResponseCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, ok, err := d.Get(context.Background(), key); ok || err != nil {
		t.Errorf("refused stream left a durable entry: ok=%v err=%v", ok, err)
	}
}

// TestStreamDeadlineExpiryEndsDone pins the cancellation satellite's server
// half: a streamed job whose deadline expires mid-anneal terminates its
// stream with a final done event carrying the best incumbent so far — not
// failed.
func TestStreamDeadlineExpiryEndsDone(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := d1StreamRequest(t)
	req.Opts.Iters = 50_000_000 // far more work than the deadline allows
	req.Timeout = 150 * time.Millisecond
	st, err := s.SubmitStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	evs := collectStream(t, s, st.ID)
	final := evs[len(evs)-1]
	if final.Stage != StreamDone || !final.Final || final.Response == nil {
		t.Fatalf("deadline expiry did not end the stream done: %+v", final)
	}
	done, _ := s.Job(st.ID)
	if done.State != StateDone {
		t.Fatalf("deadline-expired streamed job state: %+v", done)
	}
}

// TestStreamDisconnectDoesNotLeak pins the cancellation satellite's client
// half: dropping an SSE connection mid-stream releases the handler
// goroutine while the background job keeps running to completion.
func TestStreamDisconnectDoesNotLeak(t *testing.T) {
	gate := make(chan struct{})
	registerGate("stream-leak", gate)
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	st, err := s.SubmitStream(context.Background(), testRequest("stream-leak", testDesign("stream-leak")))
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// Read the replayed first event so the handler is provably mid-stream,
	// then drop the connection.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitFor(t, "SSE handler goroutine release", func() bool {
		return runtime.NumGoroutine() <= before
	})

	// The background job is unaffected by the disconnect.
	close(gate)
	waitFor(t, "job completion after disconnect", func() bool {
		done, _ := s.Job(st.ID)
		return done.State == StateDone
	})
}

// readSSE follows a job's SSE stream at url, resuming past lastEventID
// when it is set, until the server closes the stream after the final
// event. It returns the events in arrival order and requires every frame's
// id to carry its event's seq and the stream to be non-empty.
func readSSE(t *testing.T, url, lastEventID string) []StreamEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	var (
		evs []StreamEvent
		id  string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 8<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			var e StreamEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("SSE data %q: %v", line, err)
			}
			if id != fmt.Sprint(e.Seq) {
				t.Fatalf("SSE frame id %q carries seq %d", id, e.Seq)
			}
			evs = append(evs, e)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE %s: %v", url, err)
	}
	if len(evs) == 0 {
		t.Fatalf("GET %s: empty SSE stream", url)
	}
	return evs
}

// TestJobEventsResume re-opens a finished job's SSE stream past seq k, once
// with ?after=k and once with the Last-Event-ID header: each must replay
// exactly the events past k, in seq order, ending with done. A mode query
// parameter (the retired long-poll form) is a 400 naming it.
func TestJobEventsResume(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	st, err := s.SubmitStream(context.Background(), d1StreamRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + st.ID + "/events"
	all := readSSE(t, url, "")
	if len(all) < 2 || all[len(all)-1].Stage != StreamDone {
		t.Fatalf("full stream: %d events, last %+v", len(all), all[len(all)-1])
	}
	for i, e := range all {
		if e.Seq != int64(i)+1 {
			t.Fatalf("full stream out of order at %d: %+v", i, e)
		}
	}
	k := len(all) / 2
	want := mustJSON(t, all[k:])
	for form, got := range map[string][]StreamEvent{
		"?after":        readSSE(t, fmt.Sprintf("%s?after=%d", url, k), ""),
		"Last-Event-ID": readSSE(t, url, fmt.Sprint(k)),
	} {
		if g := mustJSON(t, got); g != want {
			t.Errorf("resume past seq %d with %s:\n got %s\nwant %s", k, form, g, want)
		}
	}

	for _, q := range []string{"?mode=poll", "?mode=sse", "?after=1&mode="} {
		resp, err := http.Get(url + q)
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"mode"`) {
			t.Errorf("GET events%s: HTTP %d %q (%v), want 400 naming mode", q, resp.StatusCode, e.Error, err)
		}
	}
}

// TestMapStreamRejectsAsync pins that async and stream are mutually
// exclusive on the wire.
func TestMapStreamRejectsAsync(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	raw := designJSON(t, testDesign("stream-async"))
	body, _ := json.Marshal(MapRequest{Design: raw, Mode: "stream", Async: true})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async+stream accepted: status %d", resp.StatusCode)
	}
}
