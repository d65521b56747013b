package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nocmap/internal/store"
	"nocmap/pkg/noc"
)

func main() {
	pins, err := pinnedPaper()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(runCLI(os.Args[1:], os.Stdout, os.Stderr, pins, benchSizes))
}

// runDeadline bounds a whole run, so a wedged service fails the run well
// inside the three minutes a run may take.
const runDeadline = 150 * time.Second

// buildDir is the checkout-relative directory for everything a run writes.
const buildDir = ".bench_build"

// runCLI runs one benchmark invocation and returns the exit code: 0 when
// every check passed, 1 when a check failed or the run broke, 2 on bad
// arguments. pins are the paper-figure values the run must reproduce; sz
// sizes the workload.
func runCLI(args []string, stdout, stderr io.Writer, pins map[string]float64, sz sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed generates the same requests")
	secs := fs.Float64("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: replay the first ops traced and report the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "span file of a traced run (default "+buildDir+"/spans/<workload>-seed<N>.jsonl)")
	recordPath := fs.String("record", "", "append the run's full record (host, statistics, metrics) as one JSON line to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		fmt.Fprintln(stderr)
		fs.PrintDefaults()
		fmt.Fprintln(stderr)
		fmt.Fprint(stderr, usageText())
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(filepath.Join(buildDir, "work"), w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := &config{seed: *seed, duration: time.Duration(*secs * float64(time.Second)),
		trace: *trace == 1, workDir: workDir, sz: sz}
	if *spans == "" {
		*spans = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	res, err := execute(ctx, w, cfg, *spans)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	got, err := paperFigures()
	if err == nil {
		if drift := checkPaper(pins, got); len(drift) > 0 {
			err = fmt.Errorf("paper figure drift: %s", strings.Join(drift, "; "))
		}
	}
	res.tally.add(err)
	return report(res, w, cfg, *recordPath, stdout, stderr)
}

// result is one run's checks and metrics.
type result struct {
	out     *outcome
	tally   tally
	values  map[string]float64
	defs    []metricDef
	nReplay int
}

// execute runs the workload and, for a traced run, the replay.
func execute(ctx context.Context, w workload, cfg *config, spansPath string) (*result, error) {
	need := cfg.minOps(w)
	out, err := w.run(ctx, cfg, need)
	if err != nil {
		return nil, err
	}
	res := &result{out: out, tally: out.tally}
	for _, o := range out.ops {
		res.tally.add(o.err)
	}
	if len(out.ops) < need {
		res.tally.add(fmt.Errorf("the measured phase completed %d ops, fewer than the %d a run must reach", len(out.ops), need))
	}
	if !cfg.trace {
		res.values, res.defs = e2eValues(w, out), endToEnd
		return res, nil
	}
	a, b, opened, err := out.openStores()
	if err != nil {
		return nil, fmt.Errorf("replay store: %w", err)
	}
	rp := replay(ctx, out.traced, cfg.seed, a, b)
	closeStores(a, b)
	res.nReplay = len(out.traced)
	for range len(out.traced) - len(rp.acc.failures) {
		res.tally.add(nil)
	}
	for _, e := range rp.acc.failures {
		res.tally.add(e)
	}
	if err := rp.rec.writeFile(spansPath); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	res.values, res.defs = layerValues(out, rp, opened), perLayer
	return res, nil
}

func closeStores(a, b store.Store) {
	a.Close() //nolint:errcheck // replay stores are scratch
	if b != a {
		b.Close() //nolint:errcheck // replay stores are scratch
	}
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one run, for --record.
type record struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Nproc      int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	CPU        string               `json:"cpu"`
	Revision   string               `json:"revision"`
	Ops        int                  `json:"ops"`
	Replayed   int                  `json:"replayed,omitempty"`
	Stats      map[string]summary   `json:"stats"`
	Metrics    map[string]metricOut `json:"metrics"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
}

// report prints every metric by name with its unit, then the result line,
// and returns the exit code.
func report(res *result, w workload, cfg *config, recordPath string, stdout, stderr io.Writer) int {
	metrics := make(map[string]metricOut, len(res.defs))
	for _, d := range res.defs {
		v := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.tally.add(fmt.Errorf("metric %s has no value", d.name))
			v = 0
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	correct := res.tally.failed == 0
	for _, e := range res.tally.errs {
		fmt.Fprintln(stderr, "FAIL:", e)
	}
	if recordPath != "" {
		rec := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.duration.Seconds(), Trace: cfg.trace,
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPU: cpuModel(), Revision: revision(),
			Ops: len(res.out.ops), Replayed: res.nReplay,
			Stats: runStats(w, res.out), Metrics: metrics, Correct: correct,
			Attempted: res.tally.attempted, Failed: res.tally.failed, Failures: res.tally.errs}
		err := errors.New("the binary carries no VCS revision; build it inside a git checkout")
		if rec.Revision != "" {
			err = appendJSONLine(recordPath, rec)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			correct = false
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, max(1, res.tally.attempted), res.tally.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// revision is the VCS commit the binary was built from, suffixed "+dirty"
// when the working tree had uncommitted changes; empty when not stamped.
func revision() string {
	v := noc.Version()
	if v.Revision != "" && v.Dirty {
		return v.Revision + "+dirty"
	}
	return v.Revision
}

// runStats are the statistical summaries behind the timing metrics.
func runStats(w workload, out *outcome) map[string]summary {
	lat, ttfr := latencies(out.use, out.ops)
	win := perWindow(out.use, out.ops)
	return map[string]summary{
		"latency_ms":         summarize(lat, w.tailQ()),
		"ttfr_ms":            summarize(ttfr, w.tailQ()),
		"setup_s":            summarize(seconds(out.setup), 0),
		"host_ref_ms":        summarize(out.use.refs(), 0),
		"window_ops_per_s":   summarize(win.rate, 0),
		"window_cpu_ms":      summarize(win.cpuMS, 0),
		"window_p50_ms":      summarize(win.p50MS, 0),
		"window_ttfr_p50_ms": summarize(win.ttfrP50MS, 0),
	}
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
