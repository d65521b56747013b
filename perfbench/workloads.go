package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"nocmap/internal/store"
	"nocmap/pkg/noc"
)

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	why  string
	// minOps is the op count every run must reach — a run that falls short
	// fails. It fixes the percentile tail_ms and ttfr_tail_ms report (see
	// tailQ), so a faster commit that completes more ops reports the same
	// percentile. On cold-greedy and stream-anneal it is also the length of
	// the design cycle, and the first cycle is the quality set (see
	// opBodies).
	minOps int
	// run runs the workload; need is the run's minimum op count.
	run func(ctx context.Context, cfg *config, need int) (*outcome, error)
}

var workloads = []workload{
	{name: "cold-greedy", minOps: shapeCycle, run: runColdGreedy,
		why: "every request is a never-seen design mapped by greedy: decode, digest, prepare, the growth loop, summarize and encode all run, and the store only writes"},
	{name: "hot-hits", minOps: 1000, run: runHotHits,
		why: "Zipf reads of 512 stored answers against a 128-entry memory tier after a restart: every request is a store hit from memory or disk and search never runs"},
	{name: "stream-anneal", minOps: 400, run: runStreamAnneal,
		why: "serve-then-improve anneals followed over SSE: time to the first result, the Session move loop, the event stream and store upgrades"},
}

// tailQ is the percentile of the workload's tail metrics: the highest that
// leaves twenty samples beyond it at minOps — p97.5 on cold-greedy and
// hot-hits, p95 on stream-anneal. With ten, the rule for a single
// estimate, the tails of ten runs of unchanged code spread by up to 19%.
func (w workload) tailQ() float64 { return tailQuantile(w.minOps / 2) }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the dimensions of the workloads; the smoke tests shrink them.
type sizes struct {
	workingSet int // hot-hits: distinct stored answers
	memTier    int // hot-hits: memory-tier entries in front of the disk store
	traceOps   int // ops the traced run replays (a third of it for stream-anneal)
	setupReps  int // set-ups per run, half before and half after the measured phase; setup_s is their median
	minOps     int // overrides every workload's minOps when positive
}

var benchSizes = sizes{workingSet: 512, memTier: 128, traceOps: 300, setupReps: 16}

// config is one run's settings.
type config struct {
	seed     int64
	duration time.Duration
	maxOps   int // caps the measured phase when positive
	trace    bool
	workDir  string // scratch directory for disk stores
	sz       sizes
}

// minOps is the op count a run of w must reach: the workload's own, or the
// sizes' override.
func (c *config) minOps(w workload) int {
	if c.sz.minOps > 0 {
		return c.sz.minOps
	}
	return w.minOps
}

// clientCount is the number of closed-loop clients: one per worker of a
// two-core host.
const clientCount = 2

// op is one measured operation.
type op struct {
	idx      int
	done     time.Duration // when the op completed, from the start of its phase
	lat      time.Duration
	ttfr     time.Duration // time to the first mapping; 0 when none came
	switches int
	bound    int // lower_bound_switches
	cached   bool
	queueMS  float64 // server-side queue wait of a computed answer
	runMS    float64 // server-side pipeline time of a computed answer; <0 when unknown
	result   []byte  // the answer's result, kept for the ops the traced run replays
	err      error
}

func sortOps(ops []op) {
	slices.SortFunc(ops, func(a, b op) int { return a.idx - b.idx })
}

// tally counts checked ops and keeps the first failures.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// outcome is what one workload run produced.
type outcome struct {
	setup []time.Duration
	ops   []op // the measured phase
	use   usage
	rss   uint64 // peak resident set when the run's minimum op count had completed
	// quality holds the ops switches_mean and lower_bound_mean are taken
	// over: answers to a set of designs that is the same under every seed
	// and at every throughput.
	quality []op
	// wire holds the ops whose service-side timings the traced run reads.
	wire   []op
	tally  tally // ops checked outside the measured phase
	traced []traceOp
	// openStores opens the stores the traced replay runs against — two
	// independent ones, or the same one twice when the workload's store
	// must be shared — and reports how long opening one took.
	openStores func() (a, b store.Store, opened time.Duration, err error)
}

// memoryStores are the replay stores of the workloads on the default
// memory store.
func memoryStores() (store.Store, store.Store, time.Duration, error) {
	t0 := time.Now()
	a := store.NewMemory(128)
	opened := time.Since(t0)
	return a, store.NewMemory(128), opened, nil
}

// checkResult is the per-op oracle on a wire result: no analytic
// verification violations, and a switch-count lower bound that is positive
// and no larger than the switch count.
func checkResult(raw json.RawMessage) (switches, bound int, err error) {
	var r struct {
		Switches   int      `json:"switches"`
		Bound      int      `json:"lower_bound_switches"`
		Violations []string `json:"violations"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, 0, fmt.Errorf("result: %w", err)
	}
	switch {
	case len(r.Violations) > 0:
		return 0, 0, fmt.Errorf("result violates %s", r.Violations[0])
	case r.Bound < 1 || r.Bound > r.Switches:
		return 0, 0, fmt.Errorf("lower bound %d outside [1, %d switches]", r.Bound, r.Switches)
	}
	return r.Switches, r.Bound, nil
}

func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil
	}
	return b.Bytes()
}

// syncOp posts one synchronous request and checks its answer.
func syncOp(ctx context.Context, c *client, body []byte, wantCached, keep bool) op {
	start := time.Now()
	a, status, err := c.mapSync(ctx, body)
	o := op{lat: time.Since(start), runMS: -1, cached: a.Cached}
	o.ttfr = o.lat
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("HTTP %d", status)
	case a.Cached != wantCached:
		err = fmt.Errorf("answer cached=%t, want %t", a.Cached, wantCached)
	default:
		o.switches, o.bound, err = checkResult(a.Result)
	}
	if !a.Cached && a.Timings != nil {
		o.queueMS, o.runMS = a.Timings.QueueMS, a.Timings.TotalMS
	}
	if keep {
		o.result = a.Result
	}
	o.err = err
	return o
}

// traceOps pairs the first ops with their requests for the traced replay.
func traceOps(ops []op, n int, body func(i int) []byte) []traceOp {
	var out []traceOp
	for _, o := range ops[:min(n, len(ops))] {
		out = append(out, traceOp{body: body(o.idx), want: compact(o.result)})
	}
	return out
}

// aroundPhase runs half of a run's set-ups before the measured phase and
// the rest after it. The host's speed wanders over seconds, and a set-up
// takes milliseconds, so set-ups timed back to back sample one moment of
// the host; split around the phase, their median spans the run.
func aroundPhase(reps int, setUp func(n int) error, phase func() error) error {
	if err := setUp(reps / 2); err != nil {
		return err
	}
	if err := phase(); err != nil {
		return err
	}
	return setUp(reps - reps/2)
}

// setUp times n set-ups of an HTTP workload: open the store (open nil: the
// default memory store), start a service and serve one request with first,
// up to its first result — a stream's improvement phase, which follows, is
// not set-up. Each set-up starts from a collected heap, as a restarted
// process would, and is reported at the nominal host speed of the
// reference job run just before it.
func setUp(n int, out *outcome, open func() (noc.ResultStore, error), first func(c *client) op) error {
	for range n {
		runtime.GC()
		ref := refMS()
		t0 := time.Now()
		var st noc.ResultStore
		if open != nil {
			var err error
			if st, err = open(); err != nil {
				return err
			}
		}
		srv := startServer(st)
		cs := newClients(srv.http.URL, 1)
		o := first(cs[0])
		out.setup = append(out.setup, scaled(time.Since(t0)-o.lat+o.ttfr, hostScale(ref, ref)))
		closeClients(cs)
		srv.close()
		out.tally.add(o.err)
	}
	return nil
}

// measure runs the measured phase of an HTTP workload on a fresh server.
// The peak resident set is read when need ops have completed, so it covers
// the same work at every throughput: the service retains finished jobs, and
// a run that completes more ops would otherwise report a higher peak.
func measure(ctx context.Context, cfg *config, need int, st noc.ResultStore, out *outcome, do func(c *client, i int) op) {
	srv := startServer(st)
	defer srv.close()
	cs := newClients(srv.http.URL, clientCount)
	defer closeClients(cs)
	var done atomic.Int64
	out.ops, out.use = closedLoop(cs, cfg.trace, cfg.maxOps, cfg.duration, func(c *client, i int) op {
		o := do(c, i)
		if done.Add(1) == int64(need) {
			out.rss = peakRSS()
		}
		return o
	})
}

// qualitySet is the first n ops, the fixed designs of opBodies, or nil when
// the run did not reach them (it then fails on the op count).
func qualitySet(ops []op, n int) []op {
	if len(ops) < n {
		return nil
	}
	return ops[:n]
}

func runColdGreedy(ctx context.Context, cfg *config, need int) (*outcome, error) {
	p, err := newPool()
	if err != nil {
		return nil, err
	}
	body := p.opBodies(cfg.seed, need, "cold", greedySuffix)
	out := &outcome{openStores: memoryStores}
	first := p.setupBody(greedySuffix)
	err = aroundPhase(cfg.sz.setupReps, func(n int) error {
		return setUp(n, out, nil, func(c *client) op { return syncOp(ctx, c, first, false, false) })
	}, func() error {
		measure(ctx, cfg, need, nil, out, func(c *client, i int) op {
			return syncOp(ctx, c, body(i), false, i < cfg.sz.traceOps)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.quality, out.wire = qualitySet(out.ops, need), out.ops
	out.traced = traceOps(out.ops, cfg.sz.traceOps, body)
	return out, nil
}

func runHotHits(ctx context.Context, cfg *config, need int) (*outcome, error) {
	p, err := newPool()
	if err != nil {
		return nil, err
	}
	n := cfg.sz.workingSet
	// The stored designs are the same under every seed, so the popular
	// head — which sets the median — does not change with it; the seed
	// draws the read sequence.
	entries := make([][]byte, n)
	for r := range entries {
		fam, k := p.rankShape(r)
		entries[r] = p.body(0, r, fam, k, "hot-"+strconv.Itoa(r), greedySuffix)
	}
	dir := filepath.Join(cfg.workDir, "hot-store")
	open := func() (noc.ResultStore, error) {
		return noc.OpenStore(noc.StoreConfig{Backend: "disk", Dir: dir, CacheEntries: cfg.sz.memTier})
	}
	out := &outcome{}

	// Untimed warm-up: store every entry once.
	st, err := open()
	if err != nil {
		return nil, err
	}
	srv := startServer(st)
	cs := newClients(srv.http.URL, clientCount)
	warm, _ := closedLoop(cs, false, n, 0,
		func(c *client, i int) op { return syncOp(ctx, c, entries[i], false, true) })
	closeClients(cs)
	srv.close()
	stored := make([][]byte, n)
	for _, o := range warm {
		out.tally.add(o.err)
		stored[o.idx] = o.result
	}

	hitEntry := func(c *client, r int, keep bool) op {
		o := syncOp(ctx, c, entries[r], true, true)
		if o.err == nil && !bytes.Equal(o.result, stored[r]) {
			o.err = fmt.Errorf("entry %d: hit differs from the answer it was stored from", r)
		}
		if !keep {
			o.result = nil
		}
		return o
	}
	ranks := zipfRanks(cfg.seed, 1<<17, n)
	hit := func(c *client, i int) op {
		return hitEntry(c, int(ranks[i%len(ranks)]), i < cfg.sz.traceOps)
	}
	// Set-up is a restart on the warmed directory: store recovery and a
	// first hit, on the most popular entry under every seed.
	err = aroundPhase(cfg.sz.setupReps, func(n int) error {
		return setUp(n, out, open, func(c *client) op { return hitEntry(c, 0, false) })
	}, func() error {
		st, err := open()
		if err != nil {
			return err
		}
		measure(ctx, cfg, need, st, out, hit)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range warm {
		o.result = nil
		out.quality = append(out.quality, o)
	}
	out.wire = append(slices.Clone(out.quality), out.ops...)
	out.traced = traceOps(out.ops, cfg.sz.traceOps, func(i int) []byte { return entries[ranks[i%len(ranks)]] })
	out.openStores = func() (store.Store, store.Store, time.Duration, error) {
		t0 := time.Now()
		st, err := open()
		return st, st, time.Since(t0), err
	}
	return out, nil
}

func runStreamAnneal(ctx context.Context, cfg *config, need int) (*outcome, error) {
	p, err := newPool()
	if err != nil {
		return nil, err
	}
	body := p.opBodies(cfg.seed, need, "stream", streamSuffix)
	traceN := cfg.sz.traceOps / 3
	streamOp := func(c *client, b []byte, keep bool) op {
		start := time.Now()
		ttfr, first, final, err := c.mapStream(ctx, b)
		o := op{lat: time.Since(start), ttfr: ttfr, runMS: -1}
		var firstSwitches int
		if err == nil {
			firstSwitches, _, err = checkResult(first.Result)
		}
		if err == nil {
			o.switches, o.bound, err = checkResult(final.Result)
		}
		if err == nil && o.switches > firstSwitches {
			err = fmt.Errorf("final answer has %d switches, the first had %d", o.switches, firstSwitches)
		}
		if final.Timings != nil {
			o.queueMS, o.runMS = final.Timings.QueueMS, final.Timings.TotalMS
		}
		if keep {
			o.result = final.Result
		}
		o.err = err
		return o
	}
	out := &outcome{openStores: memoryStores}
	first := p.setupBody(streamSuffix)
	err = aroundPhase(cfg.sz.setupReps, func(n int) error {
		return setUp(n, out, nil, func(c *client) op { return streamOp(c, first, false) })
	}, func() error {
		measure(ctx, cfg, need, nil, out, func(c *client, i int) op { return streamOp(c, body(i), i < traceN) })
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.quality, out.wire = qualitySet(out.ops, need), out.ops
	out.traced = traceOps(out.ops, traceN, body)
	return out, nil
}
