package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/route"
	"nocmap/internal/search"
	"nocmap/internal/service"
	"nocmap/internal/sim"
	"nocmap/internal/store"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
	"nocmap/pkg/noc"
)

// The traced run replays the first ops of a workload in process, calling
// each layer's public function in the order the service's request path
// calls them — decode, digest and key, store get, prepare, search (split at
// the StageMapped event into the growth loop and the improve phase),
// summarize, encode, store put — and then the oracle work that is not on
// the request path: the byte-for-byte comparison with the answer the
// workload received, verify.Check, the slot-accurate simulator, and two
// replays that time the per-move primitives on the answer's own
// configuration. Every op runs the whole miss path, store hit or not,
// because the oracle recomputes every answer; store.hit_ratio shows what
// the served path would have skipped.
//
// Each op's serve path runs twice, once under the recording tracer and once
// under a no-op one, in alternating order; the difference of the two wall
// clocks is the tracing overhead. Only the recorded run's numbers are
// reported, and only it runs the oracle.

// traceOp is one op the traced run replays.
type traceOp struct {
	body []byte // the op's /v1/map request
	want []byte // the compact result the workload's answer carried
}

// span is one timed call; Parent 0 marks an op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. An off recorder reads no clock and
// records nothing, so the same replay code runs under both.
type recorder struct {
	on    bool
	base  time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, base: time.Now()} }

func (r *recorder) now() time.Time {
	if !r.on {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) begin(op, parent int, name string) int {
	if !r.on {
		return 0
	}
	ns := int64(time.Since(r.base))
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: ns})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if !r.on {
		return 0
	}
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.base))
	return time.Duration(s.End - s.Start)
}

// split adds two children covering span id before and after at; a zero at
// gives the whole span to the first.
func (r *recorder) split(id int, at time.Time, first, second string) {
	if !r.on {
		return
	}
	s := r.spans[id-1]
	mid := s.End
	if !at.IsZero() {
		mid = min(max(int64(at.Sub(r.base)), s.Start), s.End)
	}
	r.spans = append(r.spans,
		span{Op: s.Op, ID: len(r.spans) + 1, Parent: id, Name: first, Start: s.Start, End: mid},
		span{Op: s.Op, ID: len(r.spans) + 2, Parent: id, Name: second, Start: mid, End: s.End})
}

func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one layer's call count and self time: each span's duration
// minus the part its children cover.
type selfTime struct {
	n    int
	self time.Duration
}

func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]selfTime)
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.self += time.Duration(s.End - s.Start - children[s.ID])
		out[s.Name] = st
	}
	return out
}

// callStat counts calls into one primitive with their total time and a
// per-call outcome count (paths returned, successes).
type callStat struct {
	n     int
	ns    time.Duration
	extra int
}

func (c *callStat) add(d time.Duration, extra int) { c.n++; c.ns += d; c.extra += extra }

func (c callStat) meanUS() float64 { return ratio(float64(c.ns)/1e3, float64(c.n)) }

// engineStat aggregates one engine's searches.
type engineStat struct {
	n, feasible, switches int
	ns                    time.Duration
}

// layers accumulates the counts measured at the layer boundaries.
type layers struct {
	ops, bodyBytes, groups int
	gets, hits             int
	getUS                  []float64
	attempts, mapped       int
	moves, accepted        int64
	route, find, reserve   callStat
	tryMove, evaluate      callStat
	tryMallocs             uint64
	engines                map[string]*engineStat
	failures               []error
}

func newLayers() *layers { return &layers{engines: make(map[string]*engineStat)} }

func (l *layers) engine(label string, d time.Duration, res *core.Result) {
	e := l.engines[label]
	if e == nil {
		e = &engineStat{}
		l.engines[label] = e
	}
	e.n++
	e.ns += d
	if res != nil {
		e.feasible++
		e.switches += res.Mapping.SwitchCount()
	}
}

// replayResult is what a traced run measured.
type replayResult struct {
	rec         *recorder
	acc         *layers // the recorded runs
	probe       *layers // per-engine rows of the engine probe
	overheadPct float64
}

// replay runs the traced ops under both recorders against stores a and b
// (the same store when the workload's store must be shared), then times
// every engine on the first op's design.
func replay(ctx context.Context, ops []traceOp, seed int64, a, b store.Store) *replayResult {
	on, off := newRecorder(true), newRecorder(false)
	accOn, accOff := newLayers(), newLayers()
	var tOn, tOff time.Duration
	for i, t := range ops {
		runOn := func() {
			served, err := replayOp(ctx, i, t, seed, on, a, accOn)
			if err != nil {
				accOn.failures = append(accOn.failures, fmt.Errorf("traced op %d: %w", i, err))
			}
			tOn += served
		}
		runOff := func() {
			t0 := time.Now()
			servePath(ctx, i, 0, t, off, b, accOff) //nolint:errcheck // the recorded run reports
			tOff += time.Since(t0)
		}
		if i%2 == 0 {
			runOff()
			runOn()
		} else {
			runOn()
			runOff()
		}
	}
	res := &replayResult{rec: on, acc: accOn, probe: newLayers(),
		overheadPct: (ratio(float64(tOn), float64(tOff)) - 1) * 100}
	if len(ops) > 0 {
		if err := probeEngines(ctx, len(ops), ops[0], on, res.probe); err != nil {
			accOn.failures = append(accOn.failures, fmt.Errorf("engine probe: %w", err))
		}
	}
	return res
}

// replayOp runs one op through the layers, then its oracle. It returns the
// wall time of the serve path, the part the no-op run repeats.
func replayOp(ctx context.Context, i int, t traceOp, seed int64, rec *recorder, st store.Store, acc *layers) (time.Duration, error) {
	acc.ops++
	acc.bodyBytes += len(t.body)
	t0 := time.Now()
	root := rec.begin(i, 0, "op")
	res, resp, err := servePath(ctx, i, root, t, rec, st, acc)
	rec.end(root)
	served := time.Since(t0)
	if err != nil {
		return served, err
	}

	oracle := rec.begin(i, 0, "oracle")
	defer rec.end(oracle)
	got, err := json.Marshal(resp.Result)
	if err != nil {
		return served, err
	}
	if !bytes.Equal(got, t.want) {
		return served, fmt.Errorf("replayed result differs from the answer the workload received")
	}
	sp := rec.begin(i, oracle, "verify.check")
	vs := verify.Check(res.Mapping)
	rec.end(sp)
	if len(vs) > 0 {
		return served, fmt.Errorf("verify: %v", vs[0])
	}
	sp = rec.begin(i, oracle, "sim.verify")
	problems := sim.VerifyAgainstAnalytic(res.Mapping, 4*res.Mapping.Params.SlotTableSize)
	rec.end(sp)
	if len(problems) > 0 {
		return served, fmt.Errorf("simulator: %s", problems[0])
	}
	sp = rec.begin(i, oracle, "core.replay")
	replayReservations(res.Mapping, rec, acc)
	rec.end(sp)
	sp = rec.begin(i, oracle, "core.moves")
	err = replayMoves(res, seed, i, rec, acc)
	rec.end(sp)
	return served, err
}

// servePath is the service's miss path for one request.
func servePath(ctx context.Context, i, root int, t traceOp, rec *recorder, st store.Store, acc *layers) (
	*core.Result, *service.Response, error) {
	sp := rec.begin(i, root, "traffic.decode")
	var mr service.MapRequest
	err := json.Unmarshal(t.body, &mr)
	var req service.Request
	if err == nil {
		req, err = mr.ToRequest()
	}
	rec.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("decode: %w", err)
	}

	sp = rec.begin(i, root, "traffic.digest")
	req.Design.Digest()
	rec.end(sp)
	sp = rec.begin(i, root, "service.key")
	key, err := req.Key()
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = rec.begin(i, root, "store.get")
	_, hit, err := st.Get(ctx, key)
	d := rec.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("store get: %w", err)
	}
	acc.gets++
	acc.getUS = append(acc.getUS, float64(d)/1e3)
	if hit {
		acc.hits++
	}

	sp = rec.begin(i, root, "usecase.prepare")
	prep, err := usecase.Prepare(req.Design)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	acc.groups += len(prep.Groups)

	eng, err := search.New(req.Engine)
	if err != nil {
		return nil, nil, err
	}
	opts := req.Opts
	var mappedAt time.Time
	var base *core.Result
	opts.Progress = func(e search.Event) {
		if base == nil {
			base, mappedAt = e.Result, rec.now()
		}
		if e.Stage == search.StageDone {
			acc.moves += e.Moves
			acc.accepted += e.Accepted
		}
	}
	sp = rec.begin(i, root, "search")
	res, err := eng.Search(ctx, prep, req.Design.NumCores(), req.Params, opts)
	rec.end(sp)
	rec.split(sp, mappedAt, "core.map", "search.improve")
	if err != nil {
		return nil, nil, err
	}
	if base != nil {
		acc.attempts += countAttempts(base.Attempts)
		acc.mapped++
	}

	sp = rec.begin(i, root, "service.summarize")
	resp := &service.Response{Key: key, Engine: req.Engine, Result: service.SummarizeResult(req.Design.Name, prep, res)}
	rec.end(sp)
	sp = rec.begin(i, root, "service.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	entry := store.Entry{Cost: req.Opts.Weights.Of(res), Val: resp}
	sp = rec.begin(i, root, "store.put")
	_, err = st.Put(ctx, key, entry)
	rec.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("store put: %w", err)
	}
	sp = rec.begin(i, root, "store.upgrade")
	_, err = st.UpgradeIfBetter(ctx, key, entry)
	rec.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("store upgrade: %w", err)
	}
	return res, resp, nil
}

// countAttempts counts the fabric sizes the growth loop actually tried.
func countAttempts(as []core.Attempt) int {
	n := 0
	for _, a := range as {
		if !a.Skipped {
			n++
		}
	}
	return n
}

// replayReservations rebuilds each smooth-switching group's slot tables
// from the answer's own assignments, heaviest flow first as the mapper
// orders them, timing candidate-path generation, aligned-slot search and
// reservation for every flow.
func replayReservations(m *core.Mapping, rec *recorder, acc *layers) {
	table := route.NewTable(m.Topology, m.Params.Cost)
	sc := route.NewScratch()
	var starts []int
	type item struct {
		f traffic.Flow
		a *core.Assignment
	}
	for _, group := range m.Prep.Groups {
		st, err := tdma.NewState(m.TotalLinks(), m.Params.SlotTableSize)
		if err != nil {
			continue
		}
		var items []item
		seen := make(map[traffic.PairKey]bool)
		for _, u := range group {
			for _, f := range m.Prep.UseCases[u].Flows {
				a := m.Configs[u].Assignments[f.Key()]
				if a == nil || a.SlotCount <= 0 || seen[f.Key()] {
					continue
				}
				seen[f.Key()] = true
				items = append(items, item{f, a})
			}
		}
		sort.SliceStable(items, func(x, y int) bool { return items[x].f.BandwidthMBs > items[y].f.BandwidthMBs })
		for owner, it := range items {
			src := topology.SwitchID(m.CoreSwitch[it.f.Src])
			dst := topology.SwitchID(m.CoreSwitch[it.f.Dst])
			t0 := rec.now()
			paths := table.CandidatesInto(sc, st, src, dst, it.a.SlotCount, m.Params.Cost)
			acc.route.add(rec.now().Sub(t0), len(paths))
			t0 = rec.now()
			found, ok := st.FindAlignedInto(it.a.Path, it.a.SlotCount, starts)
			acc.find.add(rec.now().Sub(t0), boolInt(ok))
			if !ok {
				continue
			}
			starts = found
			t0 = rec.now()
			err := st.Reserve(int32(owner), it.a.Path, starts)
			acc.reserve.add(rec.now().Sub(t0), boolInt(err == nil))
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// movesPerOp is the length of the seeded swap sequence replayed on each
// answer; the full re-evaluation, far costlier, scores its first quarter.
const movesPerOp = 16

// replayMoves scores a seeded sequence of cross-NI core swaps on the
// answer's placement twice: through the incremental Session
// (TryMove, then Undo) and through full evaluation (Evaluator.Evaluate). A
// first untimed pass lets the session's buffers reach their steady size.
func replayMoves(res *core.Result, seed int64, op int, rec *recorder, acc *layers) error {
	m := res.Mapping
	ev, err := core.NewEvaluator(m.Prep, len(m.CoreSwitch), m.Topology, m.Params)
	if err != nil {
		return fmt.Errorf("evaluator: %w", err)
	}
	sess, err := ev.SessionFrom(res)
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	var attached []int
	for c, s := range m.CoreSwitch {
		if s >= 0 {
			attached = append(attached, c)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(op)))
	type swap struct{ x, y int }
	var seq []swap
	for tries := 0; len(seq) < movesPerOp && tries < 64*movesPerOp; tries++ {
		x, y := attached[rng.IntN(len(attached))], attached[rng.IntN(len(attached))]
		if m.CoreNI[x] != m.CoreNI[y] {
			seq = append(seq, swap{x, y})
		}
	}
	if len(seq) == 0 {
		return nil
	}
	cs := make([]int, len(m.CoreSwitch))
	cn := make([]int, len(m.CoreNI))
	place := func(s swap) {
		copy(cs, m.CoreSwitch)
		copy(cn, m.CoreNI)
		cs[s.x], cs[s.y] = cs[s.y], cs[s.x]
		cn[s.x], cn[s.y] = cn[s.y], cn[s.x]
	}
	try := func(s swap) bool {
		place(s)
		if _, err := sess.TryMove(cs, cn, s.x, s.y); err != nil {
			return false
		}
		sess.Undo()
		return true
	}
	for _, s := range seq {
		try(s)
	}
	var before, after runtime.MemStats
	if rec.on {
		runtime.ReadMemStats(&before)
	}
	for _, s := range seq {
		t0 := rec.now()
		ok := try(s)
		acc.tryMove.add(rec.now().Sub(t0), boolInt(ok))
	}
	if rec.on {
		runtime.ReadMemStats(&after)
		acc.tryMallocs += after.Mallocs - before.Mallocs
	}
	for _, s := range seq[:max(1, len(seq)/4)] {
		place(s)
		t0 := rec.now()
		_, err := ev.Evaluate(cs, cn)
		acc.evaluate.add(rec.now().Sub(t0), boolInt(err == nil))
	}
	return nil
}

// specLabel names the speculative annealer at width 2, measured beside the
// registered engines at equal iterations.
const specLabel = "anneal_spec2"

// engineLabels are the registered engines plus specLabel.
func engineLabels() []string { return append(noc.Engines(), specLabel) }

// effort is the engine probe's deterministic search effort: no wall-clock
// budget anywhere, so every answer is reproducible.
var effort = struct{ iters, seeds, population, generations, nodes int }{120, 4, 8, 10, 20000}

// probeEngines times every engine label at a fixed effort on the design of
// one traced op, for the per-engine rows.
func probeEngines(ctx context.Context, op int, t traceOp, rec *recorder, acc *layers) error {
	var mr service.MapRequest
	if err := json.Unmarshal(t.body, &mr); err != nil {
		return err
	}
	req, err := mr.ToRequest()
	if err != nil {
		return err
	}
	prep, err := usecase.Prepare(req.Design)
	if err != nil {
		return err
	}
	root := rec.begin(op, 0, "probe")
	defer rec.end(root)
	for _, label := range engineLabels() {
		name, opts := label, req.Opts
		if label == specLabel {
			name, opts.SpecK = "anneal", 2
		}
		opts.Iters, opts.Seeds = effort.iters, effort.seeds
		opts.Population, opts.Generations, opts.Nodes = effort.population, effort.generations, effort.nodes
		eng, err := search.New(name)
		if err != nil {
			return err
		}
		sp := rec.begin(op, root, "search."+label)
		res, err := eng.Search(ctx, prep, req.Design.NumCores(), req.Params, opts)
		d := rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		acc.engine(label, d, res)
	}
	return nil
}
