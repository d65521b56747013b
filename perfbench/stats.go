package main

import (
	"math"
	"slices"
)

// tailQuantiles are the percentiles a tail may be reported at, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.975, 0.95, 0.9, 0.75}

// tailQuantile is the highest percentile that leaves at least ten samples
// beyond it in a sample of n: a tail estimate resting on fewer points is
// mostly noise. Samples too small for any listed tail fall back to the
// median.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// quantile returns the q-quantile of a non-empty ascending sample,
// interpolating linearly between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summary is the statistical record of one timing: its median, the median
// absolute deviation, and the tail at a stated percentile together with the
// number of samples beyond it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	TailQ  float64 `json:"tail_q"`
	Tail   float64 `json:"tail"`
	Beyond int     `json:"beyond"`
}

// summarize computes the summary of xs with the tail taken at tailQ, or at
// tailQuantile(len(xs)) when tailQ is zero; an empty sample summarizes to
// zeros. xs is not modified.
func summarize(xs []float64, tailQ float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	if tailQ == 0 {
		tailQ = tailQuantile(len(s))
	}
	if len(s) == 0 {
		return summary{TailQ: tailQ}
	}
	out := summary{N: len(s), TailQ: tailQ, Median: quantile(s, 0.5), Tail: quantile(s, tailQ)}
	dev := make([]float64, len(s))
	for i, x := range s {
		dev[i] = math.Abs(x - out.Median)
	}
	slices.Sort(dev)
	out.MAD = quantile(dev, 0.5)
	for _, x := range s {
		if x > out.Tail {
			out.Beyond++
		}
	}
	return out
}

// mean is the arithmetic mean; zero for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, zero when den is zero (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
