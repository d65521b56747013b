package main

import (
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// usage is what one measured phase cost the process. Its times run on the
// phase clock, which stops while the reference job runs (see window).
type usage struct {
	wall  time.Duration
	cpu   time.Duration // user + system, every goroutine (clients and server), less the reference job's
	alloc uint64        // bytes allocated on the heap
	marks []mark        // the phase's sub-window boundaries
	// ref0 and refEnd are the reference job's times when the phase opened
	// and closed.
	ref0, refEnd float64
	// The runtime fields are filled only for traced runs.
	gcCycles    uint64
	gcPauseTail float64 // µs, at tailQuantile of the pauses seen
	heapPeak    uint64  // bytes of live heap objects, sampled
}

// subWindow is the granularity at which a phase is sampled and the host's
// speed is measured. The host's CPU speed wanders over seconds, so
// per-window rates are reported by their median rather than averaged over
// the phase.
const subWindow = time.Second

// mark is one sub-window boundary: time and CPU time since the phase began,
// and the reference job's time measured there.
type mark struct {
	at, cpu time.Duration
	ref     float64
}

// window measures one phase: open it, run the phase, close it. At every
// sub-window boundary the sampler takes gate exclusively — ops hold it
// shared, so it waits for the ops in flight and starts no new one — and
// times the reference job on the quiet process. The phase clock (since)
// does not run meanwhile.
type window struct {
	start  time.Time
	cpu    time.Duration
	alloc  uint64
	ref0   float64
	gc     []metrics.Sample
	gate   sync.RWMutex
	paused atomic.Int64 // ns spent in the reference job
	stop   chan struct{}
	result chan sampled
}

type sampled struct {
	marks    []mark
	refCPU   time.Duration
	heapPeak uint64
}

var gcMetrics = []string{"/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

// openWindow starts measuring, with a sampler goroutine that close stops
// and waits for. It marks every sub-window, to within the sampler's 20-ms
// tick; in a traced window it also samples the live heap at every tick. The
// phase starts from a collected heap, so the garbage of earlier phases is
// not collected on its clock.
func openWindow(traced bool) *window {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &window{ref0: refMS(), stop: make(chan struct{}), result: make(chan sampled, 1)}
	w.cpu, w.alloc = cpuTime(), ms.TotalAlloc
	if traced {
		w.gc = readMetrics(gcMetrics)
	}
	w.start = time.Now()
	go w.sample(traced)
	return w
}

// since is the phase clock: the time since the window opened, less the
// time spent in the reference job.
func (w *window) since() time.Duration {
	return time.Since(w.start) - time.Duration(w.paused.Load())
}

func (w *window) sample(traced bool) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var out sampled
	next := subWindow
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if traced {
			metrics.Read(heap)
			out.heapPeak = max(out.heapPeak, heap[0].Value.Uint64())
		}
		select {
		case <-w.stop:
			w.result <- out
			return
		case <-t.C:
			if w.since() >= next {
				w.gate.Lock()
				c0 := cpuTime()
				m := mark{at: w.since(), cpu: c0 - w.cpu - out.refCPU}
				t0 := time.Now()
				m.ref = refMS()
				w.paused.Add(int64(time.Since(t0)))
				out.refCPU += cpuTime() - c0
				w.gate.Unlock()
				out.marks = append(out.marks, m)
				next += subWindow
			}
		}
	}
}

func (w *window) close() usage {
	close(w.stop)
	s := <-w.result
	u := usage{wall: w.since(), cpu: cpuTime() - w.cpu - s.refCPU, ref0: w.ref0}
	u.marks, u.heapPeak = s.marks, s.heapPeak
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc = ms.TotalAlloc - w.alloc
	u.refEnd = refMS()
	if w.gc != nil {
		after := readMetrics(gcMetrics)
		u.gcCycles = after[0].Value.Uint64() - w.gc[0].Value.Uint64()
		u.gcPauseTail = histTail(w.gc[1].Value.Float64Histogram(), after[1].Value.Float64Histogram()) * 1e6
	}
	return u
}

func readMetrics(names []string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// histTail is the tail (tailQuantile of the count) of the samples a runtime
// histogram gained between two reads, in the histogram's unit. A bucket is
// represented by its upper bound, its lower bound when that is infinite.
func histTail(before, after *metrics.Float64Histogram) float64 {
	var n uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(tailQuantile(int(n)) * float64(n))
	var seen uint64
	for i, c := range counts {
		seen += c
		if c > 0 && seen > rank {
			hi := after.Buckets[i+1]
			if hi > 1e300 {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-2]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // Linux reports KiB
}

// refJob is the reference job's input and scratch space.
var refJob struct {
	sync.Mutex
	src, buf []int
}

// refMS times a fixed reference job that runs none of the mapper's code —
// sorting 50k pseudo-random ints — five times and returns the fastest, in
// ms. It tells a slower host from slower code: on a shared machine the CPU
// speed drifts by tens of percent over minutes. The fastest of five ignores
// a brief disturbance such as a collection cycle running beside it, and
// keeps the host's speed of the moment.
func refMS() float64 {
	refJob.Lock()
	defer refJob.Unlock()
	if refJob.src == nil {
		r := rand.New(rand.NewPCG(1, 2))
		refJob.src, refJob.buf = make([]int, 50_000), make([]int, 50_000)
		for i := range refJob.src {
			refJob.src[i] = r.Int()
		}
	}
	best := math.Inf(1)
	for range 5 {
		copy(refJob.buf, refJob.src)
		t0 := time.Now()
		slices.Sort(refJob.buf)
		best = min(best, ms(time.Since(t0)))
	}
	return best
}

// refNominalMS is the reference job's time at the host speed the timing
// metrics are reported at; on the two-vCPU Xeon host the benchmark was
// built on it measured 4-6 ms.
const refNominalMS = 4.5

// hostScale is the factor that brings a time measured between two
// reference runs that took a and b ms to the nominal host speed: a time
// measured while the reference job took 1.2 times its nominal time is
// divided by 1.2. Without reference times (zero) it is 1.
func hostScale(a, b float64) float64 {
	if a+b <= 0 {
		return 1
	}
	return 2 * refNominalMS / (a + b)
}

// scaled is d times f.
func scaled(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// segment is a stretch of a phase between two reference runs: a
// sub-window, or the partial one after the last mark.
type segment struct {
	end   time.Duration // on the phase clock
	wall  time.Duration
	cpu   time.Duration
	scale float64 // hostScale of the reference runs around it
	full  bool    // a whole sub-window
}

// segments splits the phase at its marks.
func (u usage) segments() []segment {
	var out []segment
	prev := mark{ref: u.ref0}
	for _, m := range u.marks {
		out = append(out, segment{end: m.at, wall: m.at - prev.at, cpu: m.cpu - prev.cpu,
			scale: hostScale(prev.ref, m.ref), full: true})
		prev = m
	}
	return append(out, segment{end: u.wall, wall: u.wall - prev.at, cpu: u.cpu - prev.cpu,
		scale: hostScale(prev.ref, u.refEnd)})
}

// segmentOf is the index of the segment an op completed in.
func segmentOf(segs []segment, done time.Duration) int {
	return min(sort.Search(len(segs), func(j int) bool { return segs[j].end >= done }), len(segs)-1)
}

// refs are the reference job's times over the phase, in order.
func (u usage) refs() []float64 {
	out := []float64{u.ref0}
	for _, m := range u.marks {
		out = append(out, m.ref)
	}
	return append(out, u.refEnd)
}

// cpuModel names the host CPU for the record header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
