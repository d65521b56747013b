package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nocmap/internal/traffic"
)

// d1Raw loads the checked-in D1 example design — the same file the CLI
// documentation exercises.
func d1Raw(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("../../examples/designs/d1.json")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// d1JSON is the D1 example design in its interchange form.
func d1JSON(t *testing.T) *traffic.DesignJSON {
	t.Helper()
	var d traffic.DesignJSON
	if err := json.Unmarshal(d1Raw(t), &d); err != nil {
		t.Fatal(err)
	}
	return &d
}

func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	s := New(Config{Workers: 4})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServerMapD1AllEngines is the acceptance-path e2e: POST /v1/map serves the
// checked-in D1 design with every registered engine, a repeated identical
// request is a cache hit, and /v1/stats proves it.
func TestServerMapD1AllEngines(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)

	small := 20 // keep the metaheuristic engines interactive under -race
	seeds := 2
	for _, engine := range []string{"greedy", "anneal", "portfolio"} {
		httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
			Design: design, Engine: engine, Iters: &small, Seeds: &seeds,
		})
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/map engine=%s: HTTP %d: %s", engine, httpResp.StatusCode, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Engine != engine || resp.Cached {
			t.Errorf("engine %s: response engine=%q cached=%t", engine, resp.Engine, resp.Cached)
		}
		if resp.Result.Switches < 1 || resp.Result.Rows < 1 {
			t.Errorf("engine %s: degenerate result %+v", engine, resp.Result)
		}
		if len(resp.Result.Violations) > 0 {
			t.Errorf("engine %s: verification violations: %v", engine, resp.Result.Violations)
		}
		if resp.Result.Design != "D1-settopbox-4uc" || len(resp.Result.UseCases) != 4 {
			t.Errorf("engine %s: wrong design summary %+v", engine, resp.Result)
		}
	}

	// The repeat of the greedy request must be served from the cache …
	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: design, Engine: "greedy", Iters: &small, Seeds: &seeds,
	})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST /v1/map: HTTP %d", httpResp.StatusCode)
	}
	var repeat Response
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Error("repeated identical request was not a cache hit")
	}

	// … and the counters must say so: three engine runs, one hit.
	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: HTTP %d", code)
	}
	if st.CacheMisses != 3 || st.CacheHits != 1 || st.JobsDone != 3 {
		t.Errorf("stats after e2e run = %+v, want 3 misses / 1 hit / 3 done", st)
	}
}

// TestServerAsyncJob covers the async path: map → poll job → fetch result.
func TestServerAsyncJob(t *testing.T) {
	ts, _ := newTestServer(t)

	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: d1JSON(t), Engine: "greedy", Async: true,
	})
	if httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST /v1/map: HTTP %d: %s", httpResp.StatusCode, body)
	}
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" {
		t.Fatalf("async response carries no job ID: %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: HTTP %d", job.ID, code)
		}
		if job.State == StateDone || job.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", job.ID, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.State != StateDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Result == nil || job.Result.Result.Switches < 1 {
		t.Errorf("done job carries no result: %+v", job)
	}
}

// TestServerConcurrentDuplicates: three identical POST /v1/map requests in
// flight at once plus one at a different frequency. The duplicates share a
// key and one engine run (single flight or a cache hit), the variant gets
// its own.
func TestServerConcurrentDuplicates(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)
	freq := 300.0
	reqs := []MapRequest{
		{Design: design, Engine: "greedy"},
		{Design: design, Engine: "greedy"},
		{Design: design, Engine: "greedy"},
		{Design: design, Engine: "greedy", FreqMHz: &freq},
	}
	out := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			httpResp, body := postJSON(t, ts.URL+"/v1/map", reqs[i])
			if httpResp.StatusCode != http.StatusOK {
				t.Errorf("request %d: HTTP %d: %s", i, httpResp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &out[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if k := out[0].Key; out[1].Key != k || out[2].Key != k {
		t.Error("identical requests keyed differently")
	}
	if out[3].Key == out[0].Key {
		t.Error("different-frequency request shares the duplicates' key")
	}
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.JobsDone != 2 {
		t.Errorf("4 requests (3 identical) cost %d engine runs, want 2", st.JobsDone)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", "{", http.StatusBadRequest},
		{"no design", `{"engine":"greedy"}`, http.StatusBadRequest},
		{"unknown engine", fmt.Sprintf(`{"design":%s,"engine":"quantum"}`, d1Raw(t)), http.StatusBadRequest},
		{"invalid design", `{"design":{"name":"x","num_cores":0,"use_cases":[]}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	// The body is decoded strictly as a whole: an unknown field inside the
	// design and a misspelt top-level field (which would otherwise run the
	// default silently) are both rejected with a 400 that names the field,
	// and so are the removed wall-clock budget, even with a valid duration,
	// the removed placement-refinement switch and the removed wait_ms.
	unknown := []struct{ route, body, field string }{
		{"/v1/map", fmt.Sprintf(`{"design":%s,"engine":"anneal","iter":300}`, d1Raw(t)), "iter"},
		{"/v1/map", `{"design":{"name":"x","num_cores":2,"bogus":1,"use_cases":[{"name":"u","flows":[]}]}}`, "bogus"},
		{"/v1/map", `{"design":{"name":"x","num_cores":2,"use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":1,"burst":2}]}]}}`, "burst"},
		{"/v1/map", fmt.Sprintf(`{"design":%s,"seeds":2,"iters":5,"enigne":"anneal"}`, d1Raw(t)), "enigne"},
		{"/v1/map", fmt.Sprintf(`{"design":%s,"engine":"anneal","budget":"30s"}`, d1Raw(t)), "budget"},
		{"/v1/map", fmt.Sprintf(`{"design":%s,"improve":true}`, d1Raw(t)), "improve"},
		{"/v1/map", fmt.Sprintf(`{"design":%s,"mode":"stream","wait_ms":5000}`, d1Raw(t)), "wait_ms"},
	}
	for _, c := range unknown {
		resp, body := postRaw(t, ts.URL+c.route, c.body)
		var e struct{ Error string }
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: error body %s: %v", c.route, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "`+c.field+`"`) {
			t.Errorf("unknown field %q on %s: HTTP %d %q, want 400 naming it", c.field, c.route, resp.StatusCode, e.Error)
		}
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j404", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	// Removed routes: the batch endpoint and the pre-/v1 aliases.
	for _, route := range []string{"/v1/batch", "/batch", "/map"} {
		resp, body := postRaw(t, ts.URL+route, fmt.Sprintf(`{"requests":[{"design":%s}]}`, d1Raw(t)))
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: HTTP %d, want 404: %s", route, resp.StatusCode, body)
		}
	}
	var health healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Errorf("healthz: HTTP %d, body %+v", code, health)
	}
	if health.Version.Version == "" {
		t.Errorf("healthz reports no build version: %+v", health)
	}

	// An infeasible design (more communicating cores than a 1x1 mesh can
	// seat, with growth capped at 1) maps to 422.
	infeasible := `{"design":{"name":"inf","num_cores":10,"use_cases":[{"name":"u","flows":[` +
		`{"src":0,"dst":1,"bandwidth_mbs":10},{"src":2,"dst":3,"bandwidth_mbs":10},` +
		`{"src":4,"dst":5,"bandwidth_mbs":10},{"src":6,"dst":7,"bandwidth_mbs":10},` +
		`{"src":8,"dst":9,"bandwidth_mbs":10}]}]},"max_dim":1}`
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader([]byte(infeasible)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible design: HTTP %d, want 422", resp.StatusCode)
	}
}

// POST /v1/map with a topology field must run on that fabric, produce a cache
// key distinct from the mesh run of the same design, and reject unknown
// fabrics with 400.
func TestServerMapTopologyField(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)

	var keys []string
	for _, topo := range []string{"", "torus"} {
		httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: design, Topology: topo})
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("topology %q: HTTP %d: %s", topo, httpResp.StatusCode, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Result.Violations) != 0 {
			t.Fatalf("topology %q: violations %v", topo, resp.Result.Violations)
		}
		keys = append(keys, resp.Key)
	}
	if keys[0] == keys[1] {
		t.Errorf("mesh and torus requests share cache key %s", keys[0])
	}

	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: design, Topology: "hypercube"})
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown topology: HTTP %d: %s", httpResp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("hypercube")) {
		t.Errorf("error body %s should name the bad fabric", body)
	}
}

// A "topology" tag inside the design JSON applies when the request carries
// no explicit override, keying the cache separately from the mesh run.
func TestServerDesignTopologyTag(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)
	tagged := *design
	tagged.Topology = "torus"

	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: &tagged})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("tagged design: HTTP %d: %s", httpResp.StatusCode, body)
	}
	var torusResp Response
	if err := json.Unmarshal(body, &torusResp); err != nil {
		t.Fatal(err)
	}
	_, meshBody := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: design})
	var meshResp Response
	if err := json.Unmarshal(meshBody, &meshResp); err != nil {
		t.Fatal(err)
	}
	if torusResp.Key == meshResp.Key {
		t.Error("design-tagged torus request shares the mesh cache key")
	}
}

// TestServerSearchWidthLimit: a seeds or population count above
// maxSearchWidth is refused with a 400 naming the field and the limit, and
// no engine run starts. Unbounded, 1<<30 seeds would start that many
// portfolio goroutines and 1<<30 members would be allocated up front.
func TestServerSearchWidthLimit(t *testing.T) {
	ts, s := newTestServer(t)
	for _, field := range []string{"seeds", "population"} {
		resp, body := postRaw(t, ts.URL+"/v1/map", fmt.Sprintf(`{"design":%s,"engine":"portfolio","%s":%d}`, d1Raw(t), field, 1<<30))
		var e struct{ Error string }
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: error body %s: %v", field, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, field) || !strings.Contains(e.Error, strconv.Itoa(maxSearchWidth)) {
			t.Errorf("%s = 1<<30: HTTP %d %q, want 400 naming the field and the limit %d", field, resp.StatusCode, e.Error, maxSearchWidth)
		}
	}
	if st := s.Stats(); st.JobsDone != 0 || st.CacheMisses != 0 {
		t.Errorf("over-wide requests reached the engines: %+v", st)
	}
	// The limit itself is accepted.
	mr := MapRequest{Design: d1JSON(t), Seeds: new(int), Population: new(int)}
	*mr.Seeds, *mr.Population = maxSearchWidth, maxSearchWidth
	if _, err := mr.ToRequest(); err != nil {
		t.Errorf("seeds and population at the limit rejected: %v", err)
	}
}

// TestServerEffortLimit: an iters, generations, nodes, slots or max_dim
// value above its limit is refused with a 400 naming the field and the
// limit, and no engine run starts. Unbounded, 1<<30 anneal moves without a
// budget hold a worker for hours, 2000000000 slots ask for about 250 MB of
// slot table per link and group, and the growth sequence's cost grows as
// max_dim⁴. The over-limit values go only through decode and ToRequest;
// no mapping ever runs at them.
func TestServerEffortLimit(t *testing.T) {
	ts, s := newTestServer(t)
	limits := []struct {
		field, engine string
		limit, value  int
	}{
		{"iters", "anneal", maxIters, 1 << 30},
		{"generations", "ga", maxGenerations, 1 << 30},
		{"nodes", "exact", maxNodes, 1 << 30},
		{"slots", "greedy", maxSlots, 2000000000},
		{"slots", "greedy", maxSlots, maxSlots + 1},
		{"max_dim", "greedy", maxMeshDim, 3000},
		{"max_dim", "greedy", maxMeshDim, maxMeshDim + 1},
	}
	for _, l := range limits {
		resp, body := postRaw(t, ts.URL+"/v1/map", fmt.Sprintf(`{"design":%s,"engine":%q,"%s":%d}`, d1Raw(t), l.engine, l.field, l.value))
		var e struct{ Error string }
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: error body %s: %v", l.field, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, l.field) || !strings.Contains(e.Error, strconv.Itoa(l.limit)) {
			t.Errorf("%s = %d: HTTP %d %q, want 400 naming the field and the limit %d", l.field, l.value, resp.StatusCode, e.Error, l.limit)
		}
	}
	if st := s.Stats(); st.JobsDone != 0 || st.CacheMisses != 0 {
		t.Errorf("over-long requests reached the engines: %+v", st)
	}
	// The limits themselves are accepted.
	mr := MapRequest{Design: d1JSON(t), Iters: new(int), Generations: new(int), Nodes: new(int),
		Slots: new(int), MaxDim: new(int)}
	*mr.Iters, *mr.Generations, *mr.Nodes = maxIters, maxGenerations, maxNodes
	*mr.Slots, *mr.MaxDim = maxSlots, maxMeshDim
	if _, err := mr.ToRequest(); err != nil {
		t.Errorf("iters, generations, nodes, slots and max_dim at their limits rejected: %v", err)
	}
}

// TestServerBodyLimit pins the request-body bound: a body past maxBodyBytes
// is refused with 413 naming the limit before the service decodes a design
// from it.
func TestServerBodyLimit(t *testing.T) {
	ts, s := newTestServer(t)
	pad := strings.Repeat(" ", maxBodyBytes)
	resp, body := postRaw(t, ts.URL+"/v1/map", `{"design":`+pad+`{}}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body got HTTP %d, want 413: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(strconv.Itoa(maxBodyBytes))) {
		t.Errorf("413 body %s does not name the %d-byte limit", body, maxBodyBytes)
	}
	if st := s.Stats(); st.CacheMisses != 0 || st.JobsDone != 0 {
		t.Errorf("oversize bodies reached the service: %+v", st)
	}

	// A padded body far above any real request but within the limit is
	// decoded as usual.
	resp, body = postRaw(t, ts.URL+"/v1/map", `{"design":`+string(d1Raw(t))+pad[:maxBodyBytes/2]+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("body under the limit: HTTP %d: %s", resp.StatusCode, body)
	}
}

// TestServerBodyEdges pins the answers at the edges of the /v1/map body
// read: an oversize body that is one valid JSON value, trailing bytes after
// a valid object (a few, and more than the body limit), and decodes back to
// back and concurrently, none of which may alias another request's strings.
func TestServerBodyEdges(t *testing.T) {
	ts, _ := newTestServer(t)
	valid := `{"design":` + string(d1Raw(t)) + `,"engine":"greedy"}`

	huge := `{"design":{"name":"` + strings.Repeat("x", maxBodyBytes) + `","num_cores":2,"use_cases":[]}}`
	if resp, body := postRaw(t, ts.URL+"/v1/map", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize valid body: HTTP %d, want 413: %.200s", resp.StatusCode, body)
	}

	_, plain := postRaw(t, ts.URL+"/v1/map", valid)
	var want Response
	if err := json.Unmarshal(plain, &want); err != nil || want.Key == "" {
		t.Fatalf("valid body: %s (%v)", plain, err)
	}
	for name, tail := range map[string]string{
		"garbage":         "garbage",
		"a second object": `{"engine":"anneal"}`,
		"past the limit":  strings.Repeat(" ", maxBodyBytes),
	} {
		resp, body := postRaw(t, ts.URL+"/v1/map", valid+tail)
		var got Response
		if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != http.StatusOK || got.Key != want.Key {
			t.Errorf("valid object + %s: HTTP %d %.200s, want 200 with key %s", name, resp.StatusCode, body, want.Key)
		}
	}

	decode := func(body string) (MapRequest, bool) {
		var mr MapRequest
		req := httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(body))
		return mr, decodeBody(httptest.NewRecorder(), req, &mr)
	}
	named := func(i int) string {
		return strings.Replace(valid, `"name": "D1-settopbox-4uc"`, fmt.Sprintf(`"name": "design-%03d"`, i), 1)
	}
	if named(1) == valid {
		t.Fatal("the D1 example no longer carries its name line")
	}
	first, ok := decode(named(1))
	if !ok {
		t.Fatal("first body rejected")
	}
	before, _ := json.Marshal(first)
	if _, ok := decode(named(2)); !ok {
		t.Fatal("second body rejected")
	}
	if after, _ := json.Marshal(first); !bytes.Equal(before, after) || first.Design.Name != "design-001" {
		t.Errorf("decoding a second body changed the first request:\n%s\nvs\n%s", before, after)
	}

	errs := make(chan error, 8)
	for g := range 8 {
		go func() {
			var kept []MapRequest
			for i := range 20 {
				mr, ok := decode(named(g*100 + i))
				if !ok {
					errs <- fmt.Errorf("body %d rejected", g*100+i)
					return
				}
				kept = append(kept, mr)
			}
			for i, mr := range kept {
				if want := fmt.Sprintf("design-%03d", g*100+i); mr.Design.Name != want {
					errs <- fmt.Errorf("body %d decoded as %q", g*100+i, mr.Design.Name)
					return
				}
			}
			errs <- nil
		}()
	}
	for range 8 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
