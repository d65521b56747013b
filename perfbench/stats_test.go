package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestTailQuantileLeavesTenSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.975}, {400, 0.975},
		{399, 0.95}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeMedianMADAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s := summarize(xs, 0)
	// |x - 50.5| takes 0.5, 1.5, ..., 49.5 twice each; their median is 25.
	if s.N != 100 || s.Median != 50.5 || s.MAD != 25 {
		t.Errorf("n %d median %v MAD %v, want 100, 50.5, 25", s.N, s.Median, s.MAD)
	}
	// 100 samples support p90 and no higher: 91..100 lie beyond 90.1.
	if s.TailQ != 0.9 || math.Abs(s.Tail-90.1) > 1e-9 || s.Beyond != 10 {
		t.Errorf("tail p%v = %v with %d beyond, want p0.9 = 90.1 with 10", s.TailQ, s.Tail, s.Beyond)
	}
	if xs[0] == 1 && xs[99] == 100 {
		t.Error("summarize sorted its input in place")
	}
	if s := summarize(xs, 0.99); s.TailQ != 0.99 || math.Abs(s.Tail-99.01) > 1e-9 {
		t.Errorf("fixed tail p%v = %v, want p0.99 = 99.01", s.TailQ, s.Tail)
	}
	if s := summarize(nil, 0.99); s != (summary{TailQ: 0.99}) {
		t.Errorf("empty sample summarized to %+v", s)
	}
	if s := summarize([]float64{3, 1, 2, 100}, 0); s.Median != 2.5 || s.MAD != 1 {
		t.Errorf("MAD resists the outlier: median %v MAD %v, want 2.5 and 1", s.Median, s.MAD)
	}
}

func TestPerWindowMedians(t *testing.T) {
	// The reference job runs at its nominal time around window 0, twice it
	// at the end of window 1 and on: windows 1 and 2 scale by 2/3 and 1/2.
	u := usage{wall: 3.5e9, cpu: 6e9, ref0: refNominalMS, refEnd: 2 * refNominalMS, marks: []mark{
		{at: 1e9, cpu: 2e9, ref: refNominalMS}, {at: 2e9, cpu: 4e9, ref: 2 * refNominalMS}, {at: 3e9, cpu: 5e9, ref: 2 * refNominalMS}}}
	ops := []op{
		{done: 0.5e9, lat: 1e6}, {done: 0.9e9, lat: 3e6}, // window 0: 2 ops
		{done: 2.5e9, lat: 2e6}, // window 2: 1 op; window 1 is empty
		{done: 3.5e9, lat: 9e6}, // after the last mark: dropped
	}
	w := perWindow(u, ops)
	if len(w.rate) != 3 || w.rate[0] != 2 || w.rate[1] != 0 || w.rate[2] != 2 {
		t.Errorf("rates %v, want [2 0 2]", w.rate)
	}
	if len(w.cpuMS) != 2 || w.cpuMS[0] != 1000 || w.cpuMS[1] != 500 {
		t.Errorf("cpu per op %v, want [1000 500]", w.cpuMS)
	}
	if len(w.p50MS) != 2 || w.p50MS[0] != 2 || w.p50MS[1] != 1 {
		t.Errorf("window medians %v, want [2 1]", w.p50MS)
	}
	lat, _ := latencies(u, ops)
	if want := []float64{1, 3, 1, 4.5}; !slices.Equal(lat, want) {
		t.Errorf("scaled latencies %v, want %v", lat, want)
	}
	// 1 s at 1, 1 s at 2/3, 1.5 s at 1/2; CPU 2 s at 1, 2 s at 2/3, 2 s at 1/2.
	wall, cpu := nominal(u)
	if math.Abs(wall.Seconds()-(1+2.0/3+0.75)) > 1e-9 || math.Abs(cpu.Seconds()-(2+4.0/3+1)) > 1e-9 {
		t.Errorf("nominal wall %v cpu %v, want 2.4167s and 4.3333s", wall, cpu)
	}
}

func TestRefMSIsPositive(t *testing.T) {
	if r := refMS(); !(r > 0) || math.IsInf(r, 0) {
		t.Fatalf("reference job took %v ms", r)
	}
}
