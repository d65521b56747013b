package service

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/topology"
)

// memoServer starts a service behind an httptest server.
func memoServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// mustMarshal encodes a wire request the way noc.Client does.
func mustMarshal(t *testing.T, mr MapRequest) string {
	t.Helper()
	b, err := json.Marshal(mr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postAnswer posts a raw body, requires the status and returns the reply.
func postAnswer(t *testing.T, url, body string, status int) []byte {
	t.Helper()
	resp, out := postRaw(t, url+"/v1/map", body)
	if resp.StatusCode != status {
		t.Fatalf("POST /v1/map = %d, want %d: %.300s", resp.StatusCode, status, out)
	}
	return out
}

// decodeAnswer decodes a sync reply, keeping its result bytes.
func decodeAnswer(t *testing.T, raw []byte) (resp Response, result json.RawMessage) {
	t.Helper()
	var wire struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	return resp, wire.Result
}

// goldenWireRequest is the POST /v1/map body of a TestMapGolden case, or
// false when the case sets parameters the wire form cannot carry.
func goldenWireRequest(t *testing.T, gc goldenCase) (string, bool) {
	t.Helper()
	d, err := gc.design()
	if err != nil {
		t.Fatal(err)
	}
	mr := MapRequest{Design: d.JSON(), Engine: gc.engine}
	p := core.DefaultParams()
	if gc.params != nil {
		gc.params(&p)
	}
	if p.DisableUnifiedSlots || p.DisableMappedPreference || gc.opts.SpecK != 0 {
		return "", false
	}
	if p.FreqMHz != core.DefaultParams().FreqMHz {
		mr.FreqMHz = &p.FreqMHz
	}
	if p.Topology.Kind == topology.KindTorus {
		mr.Topology = "torus"
	}
	o := gc.opts
	for _, f := range []struct {
		v   int
		dst **int
	}{{o.Seeds, &mr.Seeds}, {o.Iters, &mr.Iters}, {o.Population, &mr.Population},
		{o.Generations, &mr.Generations}, {o.Nodes, &mr.Nodes}} {
		if f.v != 0 {
			*f.dst = &f.v
		}
	}
	if o.Seed != 0 {
		mr.Seed = &o.Seed
	}
	return mustMarshal(t, mr), true
}

// TestMemoByteIdentity: over the golden request fixtures, the third
// identical POST, answered by the memo, returns the bytes of the second,
// a full-path hit.
func TestMemoByteIdentity(t *testing.T) {
	s, ts := memoServer(t, Config{Workers: 2, CacheEntries: 64})
	cases := 0
	for _, gc := range goldenCases {
		body, ok := goldenWireRequest(t, gc)
		if !ok {
			continue
		}
		cases++
		t.Run(gc.name, func(t *testing.T) {
			first := postAnswer(t, ts.URL, body, http.StatusOK)
			if resp, _ := decodeAnswer(t, first); resp.Cached {
				t.Fatal("first POST answered cached")
			}
			before := s.met.memoHits.Value()
			second := postAnswer(t, ts.URL, body, http.StatusOK)
			if got := s.met.memoHits.Value(); got != before {
				t.Fatalf("second POST was a memo answer (%d -> %d)", before, got)
			}
			third := postAnswer(t, ts.URL, body, http.StatusOK)
			if got := s.met.memoHits.Value(); got != before+1 {
				t.Fatalf("third POST: memo hits %d -> %d, want +1", before, got)
			}
			if !bytes.Equal(second, third) {
				t.Errorf("memo answer differs from the full-path hit:\n%s\nvs\n%s", third, second)
			}
		})
	}
	if cases < 10 {
		t.Fatalf("only %d golden cases are wire requests", cases)
	}
}

// TestMemoNeverAnswersStreamOrAsync: only sync bodies get memo entries, so
// a repeated streamed or asynchronous body is always admitted as a job.
func TestMemoNeverAnswersStreamOrAsync(t *testing.T) {
	s, ts := memoServer(t, Config{Workers: 1})
	for _, mr := range []MapRequest{
		{Design: testDesign("memo-stream").JSON(), Engine: "greedy", Mode: "stream"},
		{Design: testDesign("memo-async").JSON(), Engine: "greedy", Async: true},
	} {
		body := mustMarshal(t, mr)
		for i := range 4 {
			var st JobStatus
			if err := json.Unmarshal(postAnswer(t, ts.URL, body, http.StatusAccepted), &st); err != nil {
				t.Fatal(err)
			}
			if st.ID == "" {
				t.Fatalf("POST %d of %s: no job in %+v", i+1, body[len(body)-40:], st)
			}
		}
	}
	if got := s.met.memoHits.Value(); got != 0 {
		t.Errorf("memo answered %d stream or async bodies", got)
	}
}

// TestMemoRejectedBodyStaysRejected: a body the full path rejects gets no
// memo entry, so every repeat is rejected with the same text.
func TestMemoRejectedBodyStaysRejected(t *testing.T) {
	s, ts := memoServer(t, Config{Workers: 1})
	design := mustMarshal(t, MapRequest{Design: testDesign("memo-bad").JSON()})
	design = strings.TrimSuffix(design, "}")
	for _, body := range []string{
		design + `,"iter":300}`,                      // decode: unknown field
		design + `,"seeds":300}`,                     // ToRequest: over the limit
		design + `,"engine":"quantum"}`,              // Key: unknown engine
		design + `,"mode":"poll"}`,                   // unknown mode
		design + `,"mode":"stream","async":true}`,    // exclusive modes
		design + `,"engine":"greedy","slots":2000}}`, // ToRequest, after trailing bytes
	} {
		first := postAnswer(t, ts.URL, body, http.StatusBadRequest)
		for range 3 {
			if again := postAnswer(t, ts.URL, body, http.StatusBadRequest); !bytes.Equal(again, first) {
				t.Errorf("repeat of %q answered %s, first %s", body[len(design):], again, first)
			}
		}
	}
	if got := s.met.memoHits.Value(); got != 0 {
		t.Errorf("memo answered %d rejected bodies", got)
	}
}

// TestMemoWhitespaceVariant: a body that differs from a memoized one only
// in whitespace has the same key but its own bytes, so it is a full-path
// hit the first time and is then memoized on its own entry.
func TestMemoWhitespaceVariant(t *testing.T) {
	s, ts := memoServer(t, Config{Workers: 1})
	body := mustMarshal(t, MapRequest{Design: testDesign("memo-ws").JSON(), Engine: "greedy"})
	postAnswer(t, ts.URL, body, http.StatusOK)
	hit := postAnswer(t, ts.URL, body, http.StatusOK)
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(body), "", "\t"); err != nil {
		t.Fatal(err)
	}
	variant := indented.String() + "\n"
	if got := postAnswer(t, ts.URL, variant, http.StatusOK); !bytes.Equal(got, hit) {
		t.Errorf("variant answered\n%s\nwant\n%s", got, hit)
	}
	if got := s.met.memoHits.Value(); got != 0 {
		t.Fatalf("memo answered the variant's first POST (%d memo hits)", got)
	}
	for want := int64(1); want <= 2; want++ {
		if got := postAnswer(t, ts.URL, variant, http.StatusOK); !bytes.Equal(got, hit) {
			t.Errorf("variant repeat answered\n%s\nwant\n%s", got, hit)
		}
		if got := s.met.memoHits.Value(); got != want {
			t.Errorf("memo hits %d after %d variant repeats, want %d", got, want, want)
		}
	}
	postAnswer(t, ts.URL, body, http.StatusOK)
	if got := s.met.memoHits.Value(); got != 3 {
		t.Errorf("the original body lost its entry: memo hits %d, want 3", got)
	}
}

// TestMemoCollisionNeverCrossesAnswers: with a hash under which every body
// collides, the SHA-256 in the entry keeps two designs from being served
// each other's answer.
func TestMemoCollisionNeverCrossesAnswers(t *testing.T) {
	bodyHash = func(maphash.Seed, []byte) uint64 { return 0 }
	t.Cleanup(func() { bodyHash = maphash.Bytes })
	s, ts := memoServer(t, Config{Workers: 1})
	bodies := map[string]string{}
	keys := map[string]string{}
	for _, name := range []string{"memo-a", "memo-b"} {
		bodies[name] = mustMarshal(t, MapRequest{Design: testDesign(name).JSON(), Engine: "greedy"})
		resp, _ := decodeAnswer(t, postAnswer(t, ts.URL, bodies[name], http.StatusOK))
		keys[name] = resp.Key
	}
	if keys["memo-a"] == keys["memo-b"] {
		t.Fatal("the two designs share a key")
	}
	// Each POST replaces the one entry with its own body's, so the next
	// POST of the other body meets a colliding, wrong entry.
	for i, name := range []string{"memo-a", "memo-b", "memo-a", "memo-b", "memo-b", "memo-a"} {
		resp, _ := decodeAnswer(t, postAnswer(t, ts.URL, bodies[name], http.StatusOK))
		if resp.Key != keys[name] || resp.Result.Design != name {
			t.Fatalf("POST %d of %s answered %s (design %q), want key %s", i, name, resp.Key, resp.Result.Design, keys[name])
		}
	}
	// Only the repeat of memo-b right after its own entry was written.
	if got := s.met.memoHits.Value(); got != 1 {
		t.Errorf("memo hits %d, want 1", got)
	}
}

// TestMemoEvictedKeyRecomputes: a memo candidate whose key the store has
// evicted falls through to the full path, which runs the engine again and
// answers the same result bytes.
func TestMemoEvictedKeyRecomputes(t *testing.T) {
	s, ts := memoServer(t, Config{Workers: 1})
	body := mustMarshal(t, MapRequest{Design: testDesign("memo-evict").JSON(), Engine: "greedy"})
	first, want := decodeAnswer(t, postAnswer(t, ts.URL, body, http.StatusOK))
	postAnswer(t, ts.URL, body, http.StatusOK) // memoized
	s.store.Evict(first.Key)
	again, got := decodeAnswer(t, postAnswer(t, ts.URL, body, http.StatusOK))
	if again.Cached || !bytes.Equal(got, want) {
		t.Errorf("after eviction: cached %t, result\n%s\nwant\n%s", again.Cached, got, want)
	}
	if st := s.Stats(); st.JobsDone != 2 || s.met.memoHits.Value() != 0 {
		t.Errorf("after eviction: %d jobs done, %d memo hits; want 2, 0", st.JobsDone, s.met.memoHits.Value())
	}
	hit, got := decodeAnswer(t, postAnswer(t, ts.URL, body, http.StatusOK))
	if !hit.Cached || !bytes.Equal(got, want) || s.met.memoHits.Value() != 1 {
		t.Errorf("repeat after the recompute: cached %t, memo hits %d, result\n%s",
			hit.Cached, s.met.memoHits.Value(), got)
	}
}

// TestMemoJoinsFlight: a memo answer during an in-flight run of its key
// joins that run, so the key costs one engine run.
func TestMemoJoinsFlight(t *testing.T) {
	var gate atomic.Pointer[chan struct{}]
	runs := &atomic.Int64{}
	search.Register("gate-memo", func() search.Engine {
		e := gateEngine{name: "gate-memo", runs: runs}
		if g := gate.Load(); g != nil {
			e.gate = *g
		}
		return e
	})
	s, ts := memoServer(t, Config{Workers: 1})
	mr := MapRequest{Design: testDesign("memo-flight").JSON(), Engine: "gate-memo"}
	body := mustMarshal(t, mr)
	first, want := decodeAnswer(t, postAnswer(t, ts.URL, body, http.StatusOK))
	postAnswer(t, ts.URL, body, http.StatusOK) // memoized

	release := make(chan struct{})
	gate.Store(&release)
	s.store.Evict(first.Key)
	req, err := mr.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second run to start", func() bool { return runs.Load() == 2 })
	got := make(chan []byte, 1)
	go func() {
		_, out := postRaw(t, ts.URL+"/v1/map", body)
		got <- out
	}()
	waitFor(t, "the memo answer to join", func() bool { return s.Stats().Deduped == 1 })
	if hits := s.met.memoHits.Value(); hits != 1 {
		t.Errorf("memo hits %d, want 1", hits)
	}
	close(release)
	joined, result := decodeAnswer(t, <-got)
	if joined.Cached || joined.Key != first.Key || !bytes.Equal(result, want) {
		t.Errorf("joined answer: cached %t, key %s, result\n%s\nwant\n%s", joined.Cached, joined.Key, result, want)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("%d engine runs, want 2 (one before the eviction, one after)", n)
	}
}

// TestMemoBounded: the memo never holds more than memoEntries bodies, and
// the entry a full memo takes in is served.
func TestMemoBounded(t *testing.T) {
	m := newRequestMemo()
	body := []byte(`{"design":{}}`)
	for h := range uint64(memoEntries + 10) {
		m.put(h, body, "k")
	}
	if n := len(m.entries); n != memoEntries {
		t.Errorf("memo holds %d entries, want %d", n, memoEntries)
	}
	if key, ok := m.key(memoEntries+9, body); !ok || key != "k" {
		t.Errorf("the last entry put is not served: %q, %t", key, ok)
	}
}

// TestMemoHitAllocs gates the allocations of one memo-answered
// POST /v1/map of D1 from the memory store, served through httptest,
// recorder and request included. Measured: 49 allocs/op (go1.24,
// linux/amd64); the full-path hit it replaces makes 153 on the same body.
// Skipped under
// NOCMAP_SKIP_ALLOC_GATE, coverage instrumentation and the race detector.
func TestMemoHitAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled bodies at random")
	}
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	h := NewHandler(s)
	body := []byte(mustMarshal(t, MapRequest{Design: d1Design(t).JSON(), Engine: "greedy"}))
	var r bytes.Reader
	post := func() {
		r.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", &r))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/map = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	post()
	post()
	before := s.met.memoHits.Value()
	const limit = 49
	got := testing.AllocsPerRun(50, post)
	if s.met.memoHits.Value() == before {
		t.Fatal("no POST was a memo answer")
	}
	if got > limit {
		t.Errorf("memo-answered POST /v1/map: %.0f allocs/op, want <= %d", got, limit)
	}
}
