package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// testDesign is a small two-use-case design that maps onto a 1x1 mesh in
// well under a millisecond.
func testDesign(name string) *traffic.Design {
	return &traffic.Design{
		Name:  name,
		Cores: traffic.MakeCores(6),
		UseCases: []*traffic.UseCase{
			{Name: "play", Flows: []traffic.Flow{
				{Src: 0, Dst: 1, BandwidthMBs: 200, MaxLatencyNS: 2000},
				{Src: 1, Dst: 2, BandwidthMBs: 150},
				{Src: 3, Dst: 4, BandwidthMBs: 90},
			}},
			{Name: "record", Flows: []traffic.Flow{
				{Src: 2, Dst: 0, BandwidthMBs: 120},
				{Src: 4, Dst: 5, BandwidthMBs: 60},
			}},
		},
		ParallelSets: [][]int{{0, 1}},
	}
}

func testRequest(engine string, d *traffic.Design) Request {
	return Request{Design: d, Engine: engine, Params: core.DefaultParams(), Opts: search.DefaultOptions()}
}

// gateEngine counts its runs and, when gate is non-nil, blocks each run
// until the gate closes or the context expires. It makes pool scheduling
// observable and deterministic in tests.
type gateEngine struct {
	name string
	gate chan struct{}
	runs *atomic.Int64
}

func (e gateEngine) Name() string { return e.name }

func (e gateEngine) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	e.runs.Add(1)
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return search.Greedy{}.Search(ctx, prep, numCores, p, opts)
}

// registerGate installs a uniquely named gate engine for one test.
func registerGate(name string, gate chan struct{}) *atomic.Int64 {
	runs := &atomic.Int64{}
	search.Register(name, func() search.Engine {
		return gateEngine{name: name, gate: gate, runs: runs}
	})
	return runs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCacheHitDeterminism(t *testing.T) {
	runs := registerGate("count-cache", nil)
	s := New(Config{Workers: 2})
	defer s.Close()

	req := testRequest("count-cache", testDesign("cache-demo"))
	first, err := s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported as cached")
	}
	second, err := s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical second request missed the cache")
	}
	if runs.Load() != 1 {
		t.Errorf("engine ran %d times for two identical requests, want 1", runs.Load())
	}
	j1, _ := json.Marshal(first.Result)
	j2, _ := json.Marshal(second.Result)
	if string(j1) != string(j2) {
		t.Errorf("cached result JSON differs from original:\n%s\nvs\n%s", j1, j2)
	}
	if first.Key != second.Key || first.Key == "" {
		t.Errorf("keys differ: %q vs %q", first.Key, second.Key)
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.JobsDone != 1 || st.StoreEntries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 done / 1 entry", st)
	}
}

// TestCacheHitAcrossReordering exercises the canonical-hashing promise end
// to end: the same design with use-cases and flows permuted is one cache
// entry.
func TestCacheHitAcrossReordering(t *testing.T) {
	runs := registerGate("count-reorder", nil)
	s := New(Config{Workers: 2})
	defer s.Close()

	d1 := testDesign("reorder-demo")
	d2 := &traffic.Design{
		Name:  "reorder-demo",
		Cores: traffic.MakeCores(6),
		UseCases: []*traffic.UseCase{
			// "record" first, and its flows reversed.
			{Name: "record", Flows: []traffic.Flow{
				{Src: 4, Dst: 5, BandwidthMBs: 60},
				{Src: 2, Dst: 0, BandwidthMBs: 120},
			}},
			{Name: "play", Flows: []traffic.Flow{
				{Src: 3, Dst: 4, BandwidthMBs: 90},
				{Src: 1, Dst: 2, BandwidthMBs: 150},
				{Src: 0, Dst: 1, BandwidthMBs: 200, MaxLatencyNS: 2000},
			}},
		},
		ParallelSets: [][]int{{1, 0}},
	}

	r1, err := s.Map(context.Background(), testRequest("count-reorder", d1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Map(context.Background(), testRequest("count-reorder", d2))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("permuted identical design missed the cache")
	}
	if r1.Key != r2.Key {
		t.Errorf("permuted design keyed differently: %q vs %q", r1.Key, r2.Key)
	}
	if runs.Load() != 1 {
		t.Errorf("engine ran %d times, want 1", runs.Load())
	}
}

func TestSingleFlightDeduplication(t *testing.T) {
	gate := make(chan struct{})
	runs := registerGate("gate-dedup", gate)
	s := New(Config{Workers: 4})
	defer s.Close()

	req := testRequest("gate-dedup", testDesign("dedup-demo"))
	const callers = 8
	results := make(chan *Response, callers)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			r, err := s.Map(context.Background(), req)
			results <- r
			errs <- err
		}()
	}
	waitFor(t, "the one deduplicated run to start", func() bool { return runs.Load() >= 1 })
	waitFor(t, "followers to join the flight", func() bool { return s.Stats().Deduped >= callers-1 })
	close(gate)

	var key string
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		r := <-results
		if key == "" {
			key = r.Key
		} else if r.Key != key {
			t.Errorf("caller got key %q, want %q", r.Key, key)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("%d concurrent identical requests cost %d engine runs, want 1", callers, runs.Load())
	}
}

// missGate is a store whose first Get after arming reports its miss only
// once release closes; missed closes when that read has happened.
type missGate struct {
	store.Store
	armed   atomic.Bool
	missed  chan struct{}
	release chan struct{}
}

func (g *missGate) Get(ctx context.Context, digest string) (store.Entry, bool, error) {
	e, ok, err := g.Store.Get(ctx, digest)
	if !ok && err == nil && g.armed.CompareAndSwap(true, false) {
		close(g.missed)
		<-g.release
	}
	return e, ok, err
}

// TestSingleFlightAcrossFinish pins the window between a request's store
// read and its flight check: the read misses while the first run is still
// going, and the run stores its answer and leaves the flight table before
// the request re-checks it. The request must find the stored answer, not
// run the engine a second time.
func TestSingleFlightAcrossFinish(t *testing.T) {
	gate := make(chan struct{})
	runs := registerGate("gate-finish", gate)
	st := &missGate{Store: store.NewMemory(16), missed: make(chan struct{}), release: make(chan struct{})}
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()

	req := testRequest("gate-finish", testDesign("finish-demo"))
	first := make(chan *Response, 1)
	go func() {
		r, err := s.Map(context.Background(), req)
		if err != nil {
			t.Error(err)
		}
		first <- r
	}()
	waitFor(t, "the first run to start", func() bool { return runs.Load() == 1 })
	st.armed.Store(true)
	second := make(chan *Response, 1)
	go func() {
		r, err := s.Map(context.Background(), req)
		if err != nil {
			t.Error(err)
		}
		second <- r
	}()
	<-st.missed
	close(gate)
	a := <-first
	close(st.release)
	b := <-second
	if a == nil || b == nil {
		t.FailNow()
	}
	if got := s.Stats().JobsDone; got != 1 || runs.Load() != 1 {
		t.Errorf("two identical requests cost %d jobs and %d engine runs, want 1 and 1", got, runs.Load())
	}
	if !b.Cached {
		t.Error("second request not answered from the store")
	}
	ja, _ := json.Marshal(a.Result)
	jb, _ := json.Marshal(b.Result)
	if string(ja) != string(jb) {
		t.Errorf("cached answer differs from the run's:\n%s\nvs\n%s", ja, jb)
	}
}

func TestSubmitJobLifecycle(t *testing.T) {
	gate := make(chan struct{})
	registerGate("gate-life", gate)
	s := New(Config{Workers: 1})
	defer s.Close()

	id, err := s.Submit(testRequest("gate-life", testDesign("life-demo")))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to start running", func() bool {
		st, ok := s.Job(id)
		return ok && st.State == StateRunning
	})
	close(gate)
	waitFor(t, "job to finish", func() bool {
		st, _ := s.Job(id)
		return st.State == StateDone
	})
	st, _ := s.Job(id)
	if st.Result == nil || st.Result.Result.Switches < 1 {
		t.Errorf("done job carries no result: %+v", st)
	}
	if _, ok := s.Job("j999999"); ok {
		t.Error("lookup of unknown job succeeded")
	}

	// A second submit of the same request is an immediate cache hit: the
	// synthesized job is done before the first poll.
	id2, err := s.Submit(testRequest("gate-life", testDesign("life-demo")))
	if err != nil {
		t.Fatal(err)
	}
	st2, ok := s.Job(id2)
	if !ok || st2.State != StateDone || st2.Result == nil || !st2.Result.Cached {
		t.Errorf("cached submit = %+v, want done+cached", st2)
	}
}

func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	registerGate("gate-full", gate)
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// A occupies the single worker; B fills the single queue slot; C must be
	// rejected with the backpressure error.
	if _, err := s.Submit(testRequest("gate-full", testDesign("bp-a"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to occupy the worker", func() bool { return s.Stats().JobsRunning == 1 })
	if _, err := s.Submit(testRequest("gate-full", testDesign("bp-b"))); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(testRequest("gate-full", testDesign("bp-c")))
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit to full queue returned %v, want ErrQueueFull", err)
	}
	close(gate)
	waitFor(t, "queued jobs to drain", func() bool { return s.Stats().JobsDone == 2 })
}

// TestAbandonWakesJoiners pins the single-flight liveness guarantee: when a
// leader abandons its job (context canceled while blocked on a full queue),
// a follower that joined the flight must be woken with the admission error,
// not left waiting on a job that will never run.
func TestAbandonWakesJoiners(t *testing.T) {
	gate := make(chan struct{})
	registerGate("gate-abandon", gate)
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// Fill the worker and the queue with unrelated jobs.
	if _, err := s.Submit(testRequest("gate-abandon", testDesign("ab-a"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to occupy the worker", func() bool { return s.Stats().JobsRunning == 1 })
	if _, err := s.Submit(testRequest("gate-abandon", testDesign("ab-b"))); err != nil {
		t.Fatal(err)
	}

	// Leader: blocks trying to enqueue design C.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Map(leaderCtx, testRequest("gate-abandon", testDesign("ab-c")))
		leaderErr <- err
	}()
	// Follower: joins C's flight once the leader has registered it.
	waitFor(t, "leader to register its flight", func() bool { return s.Stats().CacheMisses == 3 })
	followerErr := make(chan error, 1)
	go func() {
		_, err := s.Map(context.Background(), testRequest("gate-abandon", testDesign("ab-c")))
		followerErr <- err
	}()
	waitFor(t, "follower to join the flight", func() bool { return s.Stats().Deduped == 1 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader returned %v, want context.Canceled", err)
	}
	select {
	case err := <-followerErr:
		if err == nil {
			t.Error("follower of an abandoned flight returned success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower of an abandoned flight is stuck")
	}
	close(gate)
}

func TestJobDeadline(t *testing.T) {
	gate := make(chan struct{}) // never closed: the deadline must fire
	registerGate("gate-slow", gate)
	s := New(Config{Workers: 1})
	defer s.Close()

	req := testRequest("gate-slow", testDesign("deadline-demo"))
	req.Timeout = 20 * time.Millisecond
	_, err := s.Map(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Map with expired job deadline returned %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.JobsFailed != 1 {
		t.Errorf("stats = %+v, want 1 failed job", st)
	}
}

// TestMapConcurrentDuplicates is the race-detector workout: many goroutines
// calling Map at once, duplicate keys, one shared cache and pool. Duplicates
// must collapse to one engine run per distinct design whether they hit the
// flight or the cache.
func TestMapConcurrentDuplicates(t *testing.T) {
	runs := registerGate("count-concurrent", nil)
	s := New(Config{Workers: 4})
	defer s.Close()

	const distinct, copies = 4, 4
	var reqs []Request
	for c := 0; c < copies; c++ {
		for i := 0; i < distinct; i++ {
			reqs = append(reqs, testRequest("count-concurrent", testDesign(fmt.Sprintf("concurrent-%d", i))))
		}
	}
	resps := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Map(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	byDesign := make(map[string]string) // design name -> result JSON
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		j, _ := json.Marshal(resp.Result)
		name := reqs[i].Design.Name
		if prev, ok := byDesign[name]; ok && prev != string(j) {
			t.Errorf("design %s produced two different results", name)
		}
		byDesign[name] = string(j)
	}
	if runs.Load() != distinct {
		t.Errorf("%d requests over %d designs cost %d engine runs, want %d",
			len(reqs), distinct, runs.Load(), distinct)
	}
}

func TestRequestKeyValidation(t *testing.T) {
	d := testDesign("key-demo")
	bad := testRequest("no-such-engine", d)
	if _, err := bad.Key(); err == nil {
		t.Error("unknown engine accepted by Key")
	}
	none := testRequest("greedy", nil)
	if _, err := none.Key(); err == nil {
		t.Error("nil design accepted by Key")
	}

	// Distinct engines and parameters must key differently.
	a := testRequest("greedy", d)
	b := testRequest("anneal", d)
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Error("different engines share a key")
	}
	c := testRequest("greedy", d)
	c.Params.FreqMHz = 300
	kc, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Error("different frequencies share a key")
	}

	// Stochastic engines key on the seed; the deterministic greedy engine
	// ignores it (and every other search option), so differing seeds must
	// still hit one cache entry there.
	a1, a2 := testRequest("anneal", d), testRequest("anneal", d)
	a2.Opts.Seed = 99
	k1, err := a1.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := a2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("anneal requests with different seeds share a key")
	}
	g2 := testRequest("greedy", d)
	g2.Opts.Seed = 99
	kg, err := g2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kg != ka {
		t.Error("greedy requests differing only in result-irrelevant options keyed differently")
	}
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	gate := make(chan struct{})
	registerGate("gate-close", gate)
	s := New(Config{Workers: 1, QueueDepth: 4})

	if _, err := s.Submit(testRequest("gate-close", testDesign("close-a"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to occupy the worker", func() bool { return s.Stats().JobsRunning == 1 })
	idB, err := s.Submit(testRequest("gate-close", testDesign("close-b")))
	if err != nil {
		t.Fatal(err)
	}
	close(gate) // let the running job finish; Close fails the queued one
	s.Close()

	waitFor(t, "queued job to be failed by Close", func() bool {
		st, ok := s.Job(idB)
		return ok && (st.State == StateFailed || st.State == StateDone)
	})
	if _, err := s.Submit(testRequest("gate-close", testDesign("close-c"))); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close returned %v, want ErrClosed", err)
	}
	if _, err := s.Map(context.Background(), testRequest("gate-close", testDesign("close-d"))); !errors.Is(err, ErrClosed) {
		t.Errorf("map after Close returned %v, want ErrClosed", err)
	}
}

// TestRequestKeyGolden pins the cache key of the checked-in D1 example
// mapped by greedy with every default, as POST /v1/map receives it. Durable
// stores are keyed by it.
func TestRequestKeyGolden(t *testing.T) {
	raw, err := os.ReadFile("../../examples/designs/d1.json")
	if err != nil {
		t.Fatal(err)
	}
	var mr MapRequest
	if err := json.Unmarshal([]byte(`{"design":`+string(raw)+`,"engine":"greedy"}`), &mr); err != nil {
		t.Fatal(err)
	}
	req, err := mr.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	const want = "043fd81cfb0564f911af2777018e111e58043695d64e0b50c7667a8509b42f1d"
	if got, err := req.Key(); err != nil || got != want {
		t.Errorf("D1/greedy key = %s (err %v), want %s", got, err, want)
	}
}

// Acceptance: an otherwise identical request on a different fabric must get
// a different cache key, both when the fabric arrives via core.Params and
// when it arrives as the design's own topology tag.
func TestRequestKeyDistinguishesTopologies(t *testing.T) {
	key := func(mutate func(*Request)) string {
		req := testRequest("greedy", testDesign("fabrics"))
		if mutate != nil {
			mutate(&req)
		}
		k, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	mesh := key(nil)
	torusParams := key(func(r *Request) { r.Params.Topology = topology.Spec{Kind: topology.KindTorus} })
	if torusParams == mesh {
		t.Error("torus params share the mesh cache key")
	}
	torusTag := key(func(r *Request) { r.Design.Topology = "torus" })
	if torusTag == mesh {
		t.Error("torus design tag shares the mesh cache key")
	}
	if meshTag := key(func(r *Request) { r.Design.Topology = "mesh" }); meshTag != mesh {
		t.Error("explicit mesh tag must equal the default key")
	}
}

// A torus request must run the full pipeline and serve cache hits on repeat.
func TestMapTorusEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := testRequest("greedy", testDesign("torus-e2e"))
	req.Params.Topology = topology.Spec{Kind: topology.KindTorus}
	req.Design.Topology = req.Params.Topology.CanonicalID()
	resp, err := s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Violations) != 0 {
		t.Fatalf("torus mapping has violations: %v", resp.Result.Violations)
	}
	if resp.Result.Topology != "mesh" && resp.Result.Topology != "torus" {
		t.Errorf("result topology = %q", resp.Result.Topology)
	}
	again, err := s.Map(context.Background(), req)
	if err != nil || !again.Cached {
		t.Fatalf("second torus request not served from cache: %v cached=%v", err, again != nil && again.Cached)
	}
}
