package metrics

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("noc_things_total", "Things seen.")
	r.GaugeFunc("noc_constant", "A computed gauge.", func() float64 { return 2.5 })

	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters never go down

	out := render(t, r)
	for _, want := range []string{
		"# HELP noc_things_total Things seen.\n# TYPE noc_things_total counter\nnoc_things_total 5\n",
		"# HELP noc_constant A computed gauge.\n# TYPE noc_constant gauge\nnoc_constant 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("noc_http_requests_total", "Requests by route and status.", "route", "status")
	cv.WithLabelValues("/v1/map", "200").Add(3)
	cv.WithLabelValues("/v1/map", "400").Inc()
	cv.WithLabelValues("/healthz", "200").Inc()

	out := render(t, r)
	// Children render sorted by label values, so the output is stable.
	want := `noc_http_requests_total{route="/healthz",status="200"} 1
noc_http_requests_total{route="/v1/map",status="200"} 3
noc_http_requests_total{route="/v1/map",status="400"} 1
`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing sorted vec block:\nwant:\n%s\ngot:\n%s", want, out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("noc_latency_seconds", "Latency.", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got, want := h.Sum(), 102.65; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}

	out := render(t, r)
	want := `noc_latency_seconds_bucket{le="0.1"} 2
noc_latency_seconds_bucket{le="1"} 3
noc_latency_seconds_bucket{le="10"} 4
noc_latency_seconds_bucket{le="+Inf"} 5
noc_latency_seconds_sum 102.65
noc_latency_seconds_count 5
`
	if !strings.Contains(out, want) {
		t.Errorf("histogram exposition wrong:\nwant:\n%s\ngot:\n%s", want, out)
	}
}

func TestHistogramFuncExposition(t *testing.T) {
	r := NewRegistry()
	r.HistogramFunc("noc_pause_seconds", "Read at scrape time.", []float64{1, 0.1}, func(counts []int64) float64 {
		copy(counts, []int64{2, 1, 4})
		return 9.5
	})
	out := render(t, r)
	want := `# TYPE noc_pause_seconds histogram
noc_pause_seconds_bucket{le="0.1"} 2
noc_pause_seconds_bucket{le="1"} 3
noc_pause_seconds_bucket{le="+Inf"} 7
noc_pause_seconds_sum 9.5
noc_pause_seconds_count 7
`
	if !strings.Contains(out, want) {
		t.Errorf("histogram exposition wrong:\nwant:\n%s\ngot:\n%s", want, out)
	}
}

func TestHistogramVecSharedBuckets(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("noc_engine_duration_seconds", "Engine latency.", []float64{1}, "engine")
	hv.WithLabelValues("greedy").Observe(0.5)
	hv.WithLabelValues("anneal").Observe(2)

	out := render(t, r)
	for _, want := range []string{
		`noc_engine_duration_seconds_bucket{engine="anneal",le="1"} 0`,
		`noc_engine_duration_seconds_bucket{engine="anneal",le="+Inf"} 1`,
		`noc_engine_duration_seconds_bucket{engine="greedy",le="1"} 1`,
		`noc_engine_duration_seconds_count{engine="greedy"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelAndHelpEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("noc_weird_total", "Help with \\ and\nnewline.", "what")
	cv.WithLabelValues("a\"b\\c\nd").Inc()

	out := render(t, r)
	if !strings.Contains(out, `# HELP noc_weird_total Help with \\ and\nnewline.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `noc_weird_total{what="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid metric name", func(r *Registry) { r.Counter("0bad", "h") }},
		{"invalid label name", func(r *Registry) { r.CounterVec("noc_ok_total", "h", "0bad") }},
		{"duplicate name", func(r *Registry) { r.Counter("noc_dup_total", "h"); r.GaugeFunc("noc_dup_total", "h", nil) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn(NewRegistry())
		})
	}

	t.Run("wrong label value count", func(t *testing.T) {
		r := NewRegistry()
		cv := r.CounterVec("noc_ok_total", "h", "a", "b")
		defer func() {
			if recover() == nil {
				t.Error("mismatched WithLabelValues did not panic")
			}
		}()
		cv.WithLabelValues("only-one")
	})
}

// TestConcurrentUpdatesAndScrapes hammers every metric type from many
// goroutines while scraping concurrently; run under -race this is the
// registry's thread-safety proof, and the final counts must be exact.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("noc_c_total", "c")
	cv := r.CounterVec("noc_cv_total", "cv", "who")
	h := r.Histogram("noc_h_seconds", "h", 0.5)
	hv := r.HistogramVec("noc_hv_seconds", "hv", []float64{0.5}, "who")

	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.WithLabelValues(who).Inc()
				h.Observe(float64(i) / iters)
				hv.WithLabelValues(who).Observe(0.25)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			render(t, r)
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	out := render(t, r)
	for _, want := range []string{"noc_c_total 8000\n", "noc_h_seconds_count 8000\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("final exposition missing exact total %q:\n%s", want, out)
		}
	}
}
