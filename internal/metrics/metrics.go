// Package metrics is the toolkit's dependency-free instrumentation layer:
// counters, gauges and fixed-bucket latency histograms over atomic
// operations, collected in a Registry and rendered in the Prometheus text
// exposition format (version 0.0.4). The service scrapes one Registry at
// GET /v1/metrics; any embedder can mount Registry.Handler on its own mux.
//
// Design constraints, in order:
//
//   - Zero dependencies. The whole package is stdlib-only, so the toolkit's
//     go.mod stays empty and the hot paths pay no abstraction tax they did
//     not ask for: incrementing a Counter is one atomic add.
//   - Safe under full concurrency. Every metric type may be updated from any
//     number of goroutines while another renders the exposition; scrapes are
//     wait-free for writers. A scrape is not an atomic snapshot across
//     series — histogram sums may trail their buckets by in-flight
//     observations — which is the standard exposition-format looseness.
//   - Convention-checked at registration. Metric and label names are
//     validated against the Prometheus grammar and duplicate registrations
//     panic immediately: a misnamed metric is a programming error that
//     should fail the first test that touches it, not a silent scrape-time
//     omission (CI greps the exposition output for naming violations on top).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing count. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (a counter never goes down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatGauge is a float64 value that can go up and down. It backs the
// labeled gauge families (GaugeVec), whose values are not always integers
// (utilizations, optimality gaps); an unlabeled gauge is computed at scrape
// time (Registry.GaugeFunc).
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket distribution of float64 observations
// (typically seconds). Buckets are cumulative upper bounds, Prometheus
// style; an implicit +Inf bucket catches everything beyond the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or the +Inf slot
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot reads the per-bucket counts (the last is the +Inf bucket) and
// the sum.
func (h *Histogram) snapshot() (counts []int64, sum float64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.Sum()
}

// Sum reads the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets returns the default latency bounds, in seconds: 1ms to 60s,
// spanning cache-hit-fast handlers through multi-second portfolio runs.
func DefBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// vec is the shared child table of the labeled metric types.
type vec[T any] struct {
	labels []string
	mk     func() *T

	mu       sync.RWMutex
	children map[string]*T
	keys     []string // sorted child keys for stable rendering
}

func newVec[T any](labels []string, mk func() *T) *vec[T] {
	return &vec[T]{labels: labels, mk: mk, children: make(map[string]*T)}
}

// with returns the child for the given label values, creating it on first
// use. The value count must match the label count.
func (v *vec[T]) with(values []string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels %v", len(values), len(v.labels), v.labels))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; ok {
		return c
	}
	c = v.mk()
	v.children[key] = c
	v.keys = append(v.keys, key)
	sort.Strings(v.keys)
	return c
}

// snapshot returns the children in sorted-key order with their label values.
func (v *vec[T]) snapshot() (keys [][]string, children []*T) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, k := range v.keys {
		keys = append(keys, strings.Split(k, "\xff"))
		children = append(children, v.children[k])
	}
	return keys, children
}

// CounterVec is a Counter family partitioned by label values, e.g. HTTP
// requests by route and status.
type CounterVec struct {
	*vec[Counter]
}

// WithLabelValues returns the counter for the given label values (in the
// order the labels were declared), creating it on first use.
func (cv *CounterVec) WithLabelValues(values ...string) *Counter { return cv.with(values) }

// GaugeVec is a FloatGauge family partitioned by label values, e.g. the
// latest optimality gap by engine.
type GaugeVec struct {
	*vec[FloatGauge]
}

// WithLabelValues returns the gauge for the given label values (in the order
// the labels were declared), creating it on first use.
func (gv *GaugeVec) WithLabelValues(values ...string) *FloatGauge { return gv.with(values) }

// HistogramVec is a Histogram family partitioned by label values, e.g.
// engine latency by engine name. All children share one bucket layout.
type HistogramVec struct {
	*vec[Histogram]
}

// WithLabelValues returns the histogram for the given label values, creating
// it on first use.
func (hv *HistogramVec) WithLabelValues(values ...string) *Histogram { return hv.with(values) }

// family is one registered metric name: its metadata plus a renderer.
type family struct {
	name, help, typ string
	render          func(w *errWriter, name string)
}

// Registry holds the registered metric families of one process (or one
// service instance) and renders them as a Prometheus text exposition.
// Registration methods panic on invalid or duplicate names — both are
// programming errors. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, labels []string, render func(*errWriter, string)) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, render: render}
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", nil, func(w *errWriter, n string) {
		w.seriesInt(n, nil, nil, c.Value())
	})
	return c
}

// CounterVec registers and returns a new labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{newVec(labels, func() *Counter { return &Counter{} })}
	r.register(name, help, "counter", labels, func(w *errWriter, n string) {
		values, children := cv.snapshot()
		for i, c := range children {
			w.seriesInt(n, labels, values[i], c.Value())
		}
	})
	return cv
}

// GaugeVec registers and returns a new labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{newVec(labels, func() *FloatGauge { return &FloatGauge{} })}
	r.register(name, help, "gauge", labels, func(w *errWriter, n string) {
		values, children := gv.snapshot()
		for i, g := range children {
			w.seriesFloat(n, labels, values[i], g.Value())
		}
	})
	return gv
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time
// (queue lengths, uptime). fn must be safe for concurrent use and must not
// call back into the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, func(w *errWriter, n string) {
		w.seriesFloat(n, nil, nil, fn())
	})
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds (DefBuckets when none are given).
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	h := newHistogram(buckets)
	r.register(name, help, "histogram", nil, func(w *errWriter, n string) {
		counts, sum := h.snapshot()
		renderHistogram(w, n, nil, nil, h.bounds, counts, sum)
	})
	return h
}

// HistogramFunc registers a histogram whose distribution is read by fn at
// scrape time — for a distribution another subsystem already keeps (the Go
// runtime's GC pauses). fn fills counts, one per bucket upper bound plus a
// last +Inf bucket, and returns the sum of the observations. fn must be
// safe for concurrent use and must not call back into the registry.
func (r *Registry) HistogramFunc(name, help string, buckets []float64, fn func(counts []int64) (sum float64)) {
	bounds := slices.Sorted(slices.Values(buckets))
	r.register(name, help, "histogram", nil, func(w *errWriter, n string) {
		counts := make([]int64, len(bounds)+1)
		sum := fn(counts)
		renderHistogram(w, n, nil, nil, bounds, counts, sum)
	})
}

// HistogramVec registers and returns a new labeled histogram family; every
// child shares the given bucket upper bounds (DefBuckets when nil).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	hv := &HistogramVec{newVec(labels, func() *Histogram { return newHistogram(buckets) })}
	r.register(name, help, "histogram", labels, func(w *errWriter, n string) {
		values, children := hv.snapshot()
		for i, h := range children {
			counts, sum := h.snapshot()
			renderHistogram(w, n, labels, values[i], h.bounds, counts, sum)
		}
	})
	return hv
}

// WritePrometheus renders every registered family, sorted by name, in the
// Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	ew := &errWriter{w: w}
	for _, f := range fams {
		fmt.Fprintf(ew, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(ew, "# TYPE %s %s\n", f.name, f.typ)
		f.render(ew, f.name)
	}
	return ew.err
}

// Handler serves the exposition over HTTP with the 0.0.4 content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // headers sent; nothing to report
	})
}

// renderHistogram writes the cumulative _bucket series plus _sum and _count
// from one read of the per-bucket counts (the last is the +Inf bucket), so
// the +Inf bucket and _count always agree within one scrape.
func renderHistogram(w *errWriter, name string, labels, values []string, bounds []float64, counts []int64, sum float64) {
	var cum int64
	bl := append(append([]string(nil), labels...), "le")
	for i, bound := range bounds {
		cum += counts[i]
		bv := append(append([]string(nil), values...), formatFloat(bound))
		w.seriesInt(name+"_bucket", bl, bv, cum)
	}
	cum += counts[len(bounds)]
	bv := append(append([]string(nil), values...), "+Inf")
	w.seriesInt(name+"_bucket", bl, bv, cum)
	w.seriesFloat(name+"_sum", labels, values, sum)
	w.seriesInt(name+"_count", labels, values, cum)
}

// errWriter accumulates the first write error so rendering code stays
// straight-line.
type errWriter struct {
	w   io.Writer
	err error
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	if err != nil {
		w.err = err
	}
	return n, err
}

func (w *errWriter) seriesInt(name string, labels, values []string, v int64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelString(labels, values), strconv.FormatInt(v, 10))
}

func (w *errWriter) seriesFloat(name string, labels, values []string, v float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelString(labels, values), formatFloat(v))
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
