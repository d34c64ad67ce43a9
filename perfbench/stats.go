package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// mean returns the arithmetic mean of xs; NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for tail latencies: the
// highest percentile on tailLadder that still has at least ten samples
// beyond it. It returns that percentile and its value; ok is false when
// even the median has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		// The p-th percentile leaves floor(n·(1−p/100)) samples above it.
		if beyond := int(math.Floor(float64(n)*(1-p/100) + 1e-9)); beyond >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, math.NaN(), false
}
