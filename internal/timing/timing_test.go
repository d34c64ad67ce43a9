package timing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/sim"
)

func TestLatencyAnchors(t *testing.T) {
	p := Default()
	// Fitted to Figure 8: 0-hop ≈58 cycles at 2.4 GHz, ≈80 at 1.5 GHz.
	if got := p.LLCMeanCycles(26, 24, 0, 0); math.Abs(got-58) > 1 {
		t.Errorf("0-hop at 2.4GHz = %.1f cycles, want ≈58", got)
	}
	if got := p.LLCMeanCycles(26, 15, 0, 0); math.Abs(got-80) > 1 {
		t.Errorf("0-hop at 1.5GHz = %.1f cycles, want ≈80", got)
	}
}

func TestLatencyMonotonicity(t *testing.T) {
	p := Default()
	// Lower frequency → higher latency; more hops → higher latency.
	for f := sim.Freq(15); f < 24; f++ {
		if p.LLCMeanCycles(26, f, 1, 0) <= p.LLCMeanCycles(26, f+1, 1, 0) {
			t.Errorf("latency not decreasing between %v and %v", f, f+1)
		}
	}
	for h := 0; h < 6; h++ {
		if p.LLCMeanCycles(26, 20, h, 0) >= p.LLCMeanCycles(26, 20, h+1, 0) {
			t.Errorf("latency not increasing from %d to %d hops", h, h+1)
		}
	}
	// Contention adds uncore cycles.
	if p.LLCMeanCycles(26, 20, 2, 10) <= p.LLCMeanCycles(26, 20, 2, 0) {
		t.Error("contention has no effect")
	}
}

func TestLevelOrdering(t *testing.T) {
	p := Default()
	rng := sim.NewRand(1)
	mean := func(level cache.Level) float64 {
		var s float64
		for i := 0; i < 500; i++ {
			s += p.SampleCycles(level, 26, 20, 1, 0, rng)
		}
		return s / 500
	}
	l1, l2, llc, rem, mem := mean(cache.LevelL1), mean(cache.LevelL2), mean(cache.LevelLLC), mean(cache.LevelRemote), mean(cache.LevelMem)
	if !(l1 < l2 && l2 < llc && llc < rem && rem < mem) {
		t.Errorf("level latencies not ordered: L1=%.0f L2=%.0f LLC=%.0f REM=%.0f MEM=%.0f", l1, l2, llc, rem, mem)
	}
}

func TestUncoreFromLatencyInverts(t *testing.T) {
	p := Default()
	for _, h := range []int{0, 1, 2, 3} {
		for f := sim.Freq(15); f <= 24; f++ {
			lat := p.LLCMeanCycles(26, f, h, 0)
			if got := p.UncoreFromLatency(lat, 26, h, 12, 24); got != f {
				t.Errorf("invert(lat(%v, %d hops)) = %v", f, h, got)
			}
		}
	}
	// Degenerate latencies clamp instead of exploding.
	if got := p.UncoreFromLatency(1, 26, 0, 12, 24); got != 24 {
		t.Errorf("tiny latency → %v, want clamp to max", got)
	}
	if got := p.UncoreFromLatency(10_000, 26, 0, 12, 24); got != 12 {
		t.Errorf("huge latency → %v, want clamp to min", got)
	}
}

func TestAccessTimesAndMLP(t *testing.T) {
	p := Default()
	// The traffic loop overlaps TrafficMLP accesses; the chase does not.
	tr := p.TrafficAccessTime(26, 24, 0)
	ch := p.ChaseAccessTime(26, 24, 0)
	ratio := float64(ch) / float64(tr)
	if math.Abs(ratio-p.TrafficMLP) > 0.01 {
		t.Errorf("chase/traffic spacing ratio %.2f, want MLP %.0f", ratio, p.TrafficMLP)
	}
	// Reference rate is the reciprocal of the traffic spacing.
	rate := p.ReferenceRate(26, 24)
	if math.Abs(rate*tr.Seconds()-1) > 0.01 {
		t.Errorf("reference rate inconsistent with spacing")
	}
}

func TestSampleCyclesPositive(t *testing.T) {
	p := Default()
	rng := sim.NewRand(9)
	f := func(level uint8, hops uint8) bool {
		lv := cache.Level(level % 5)
		c := p.SampleCycles(lv, 26, 15, int(hops%8), 0, rng)
		return c >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDriftProperties(t *testing.T) {
	p := Default()
	rng := sim.NewRand(3)
	var d Drift
	// Mean near zero, bounded magnitude, correlation over short gaps.
	var sum, sumSq float64
	const n = 5000
	prev := d.Sample(&p, 0, rng)
	var corr float64
	for i := 1; i <= n; i++ {
		v := d.Sample(&p, sim.Time(i)*p.DriftPeriod, rng)
		sum += v
		sumSq += v * v
		corr += v * prev
		prev = v
	}
	mean := sum / n
	if math.Abs(mean) > 0.1 {
		t.Errorf("drift mean %.3f, want ≈0", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(math.Sqrt(variance)-p.DriftStd) > 0.15*p.DriftStd {
		t.Errorf("drift stddev %.3f, want ≈%.3f", math.Sqrt(variance), p.DriftStd)
	}
	if corr/n < 0.5*variance {
		t.Errorf("drift not positively correlated: %v vs var %v", corr/n, variance)
	}
	// A long gap resamples rather than iterating thousands of steps.
	d.Sample(&p, sim.Time(n+1000)*p.DriftPeriod, rng)
}

func TestDriftDisabled(t *testing.T) {
	p := Default()
	p.DriftStd = 0
	var d Drift
	if v := d.Sample(&p, sim.Second, sim.NewRand(1)); v != 0 {
		t.Errorf("disabled drift returned %v", v)
	}
}
