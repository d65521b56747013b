package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/usecase"
)

// slowedEngine maps the greedy base, then blocks until its gate opens or
// ctx ends and returns the base either way: an engine the job deadline
// cuts short after its base, as the real improvement engines are.
type slowedEngine struct {
	name string
	gate chan struct{}
	runs *atomic.Int64
}

func (e slowedEngine) Name() string { return e.name }

func (e slowedEngine) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	e.runs.Add(1)
	base, _, err := opts.GreedyStart(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	select {
	case <-e.gate:
	case <-ctx.Done():
	}
	return base, nil
}

// registerSlowed installs a uniquely named slowed engine for one test.
func registerSlowed(name string, gate chan struct{}) *atomic.Int64 {
	runs := &atomic.Int64{}
	search.Register(name, func() search.Engine {
		return slowedEngine{name: name, gate: gate, runs: runs}
	})
	return runs
}

// TestTruncatedAnswerNotStored pins that an answer the job deadline cut
// short is served, marked truncated, and never stored: the next identical
// request runs the engine again and stores its complete answer.
func TestTruncatedAnswerNotStored(t *testing.T) {
	gate := make(chan struct{})
	runs := registerSlowed("slowed-sync", gate)
	s := New(Config{Workers: 1})
	defer s.Close()

	req := testRequest("slowed-sync", testDesign("truncated-sync"))
	req.Timeout = 20 * time.Millisecond
	resp, err := s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || resp.Cached {
		t.Errorf("deadline-cut answer: truncated=%v cached=%v, want true false", resp.Truncated, resp.Cached)
	}
	if n := s.Stats().StoreEntries; n != 0 {
		t.Errorf("store holds %d entries after a truncated run, want 0", n)
	}

	close(gate)
	resp, err = s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || resp.Cached || runs.Load() != 2 {
		t.Errorf("request after a truncated run: truncated=%v cached=%v runs=%d, want a second complete run",
			resp.Truncated, resp.Cached, runs.Load())
	}
	hit, err := s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || mustJSON(t, hit.Result) != mustJSON(t, resp.Result) {
		t.Errorf("the complete answer was not stored: cached=%v", hit.Cached)
	}
}

// TestTruncatedStreamNotStored is the streamed form over HTTP: the final
// done event carries truncated, and the job's interim greedy entry is
// evicted, so GET /v1/designs/{digest} answers 404.
func TestTruncatedStreamNotStored(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	registerSlowed("slowed-stream", gate)
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: testDesign("truncated-stream").JSON(), Engine: "slowed-stream", Mode: "stream", TimeoutMS: 20,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "")
	final := evs[len(evs)-1]
	if final.Stage != StreamDone || final.Response == nil || !final.Response.Truncated {
		t.Fatalf("final event of a deadline-cut stream: %+v, want done and truncated", final)
	}
	if code := getJSON(t, ts.URL+"/v1/designs/"+st.Key, nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/designs of a truncated stream: HTTP %d, want 404", code)
	}
}

// TestTruncatedStreamLeavesNoDiskEntry is the durable form: a truncated
// streamed job leaves no entry once the store root is reopened, and the
// complete run that follows is stored durably.
func TestTruncatedStreamLeavesNoDiskEntry(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	runs := registerSlowed("slowed-disk", gate)
	open := func() *store.Disk {
		d, err := store.OpenDisk(dir, store.DiskOptions{Codec: ResponseCodec{}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	stored := func(key string) bool {
		d := open()
		defer d.Close()
		_, ok, err := d.Get(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}

	req := testRequest("slowed-disk", testDesign("truncated-disk"))
	req.Timeout = 20 * time.Millisecond
	s := New(Config{Workers: 1, Store: open()})
	st, err := s.SubmitStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	evs := collectStream(t, s, st.ID)
	if final := evs[len(evs)-1]; final.Response == nil || !final.Response.Truncated {
		t.Fatalf("final event of a deadline-cut stream: %+v, want truncated", final)
	}
	s.Close()
	if stored(st.Key) {
		t.Fatal("a truncated stream left a durable entry")
	}

	close(gate)
	s = New(Config{Workers: 1, Store: open()})
	resp, err := s.Map(context.Background(), req)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || resp.Cached || runs.Load() != 2 {
		t.Errorf("request after a truncated stream: truncated=%v cached=%v runs=%d, want a second complete run",
			resp.Truncated, resp.Cached, runs.Load())
	}
	if !stored(st.Key) {
		t.Error("the complete run left no durable entry")
	}
}

// TestSubmitStreamJoinsSyncRun pins what a streamed request gets when it
// joins a live synchronous run of its digest: that job's status (not
// streamed, no result yet), and an event log holding only the final done
// event, whose response is byte-identical to the synchronous answer.
func TestSubmitStreamJoinsSyncRun(t *testing.T) {
	gate := make(chan struct{})
	runs := registerGate("gate-stream-joins-sync", gate)
	s := New(Config{Workers: 1})
	defer s.Close()

	req := testRequest("gate-stream-joins-sync", testDesign("stream-joins-sync"))
	type answer struct {
		resp *Response
		err  error
	}
	syncDone := make(chan answer, 1)
	go func() {
		resp, err := s.Map(context.Background(), req)
		syncDone <- answer{resp, err}
	}()
	waitFor(t, "the synchronous run to start", func() bool { return s.Stats().JobsRunning == 1 })
	st, err := s.SubmitStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream || st.Result != nil || st.State != StateRunning {
		t.Errorf("stream joining a sync run got %+v, want the running sync job without a result", st)
	}
	close(gate)
	a := <-syncDone
	if a.err != nil {
		t.Fatal(a.err)
	}
	evs := collectStream(t, s, st.ID)
	if len(evs) != 1 || evs[0].Stage != StreamDone || !evs[0].Final {
		t.Fatalf("joined sync run's event log: %+v, want one final done event", evs)
	}
	if got, want := mustJSON(t, evs[0].Response), mustJSON(t, a.resp); got != want {
		t.Errorf("final event response\n%s\nsync response\n%s", got, want)
	}
	if runs.Load() != 1 {
		t.Errorf("engine ran %d times, want 1", runs.Load())
	}
}
