package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 samples beyond p99.9
		{9999, 99.5, true},  // 9.999 beyond p99.9 is not ten
		{1000, 99, true},
		{999, 98, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false},
	} {
		pct, _, ok := tailPercentile(seq(c.n))
		if pct != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, pct, ok, c.want, c.ok)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := seq(101) // 1..101
	if got := median(xs); got != 51 {
		t.Errorf("median = %v, want 51", got)
	}
	if got := quantile(xs, 0.99); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of {1,2} = %v, want 1.5", got)
	}
	if xs[0] != 101 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty input should give NaN")
	}
	if _, _, ok := tailPercentile(nil); ok {
		t.Error("empty input supports no percentile")
	}
}
