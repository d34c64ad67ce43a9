package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
)

// platform returns the default Table 1 platform configuration with the
// given seed; experiments adjust it before drawing a machine from it.
func platform(seed uint64) system.Config {
	cfg := system.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// sampleUncore attaches a sampler recording socket's uncore frequency (in
// GHz) every period; the paper's traces sample every 200 µs (§3.3) or 3 ms
// (§5).
func sampleUncore(m *system.Machine, socket int, period sim.Time, name string) *trace.Series {
	s := &trace.Series{Name: name}
	m.Engine().Add(&sim.Ticker{
		Name:     "sample-" + name,
		Period:   period,
		Priority: 100, // after workloads and governor
		Fn: func(now sim.Time) {
			s.Add(now, m.Socket(socket).Uncore().GHz())
		},
	})
	return s
}

// medianFreq runs the machine for settle, then returns the median uncore
// frequency (GHz) of socket over a further window.
func medianFreq(m *system.Machine, socket int, settle, window sim.Time) float64 {
	return medianFreqWith(m, socket, settle, window, &stats.Sorter{})
}

// medianFreqWith is medianFreq with a caller-owned sorter, so sweep
// loops taking one median per grid cell reuse a single scratch buffer
// instead of copying every window. Sorter medians are bit-identical to
// stats.Median.
func medianFreqWith(m *system.Machine, socket int, settle, window sim.Time, srt *stats.Sorter) float64 {
	// The sampler attaches after the settle run: settle samples were never
	// part of the median, and an unsampled settle lets an inert machine
	// skip straight between governor epochs instead of waking every
	// millisecond to record a value that would be thrown away. Every call
	// site settles for a whole number of milliseconds, so the window's
	// sample grid (settle + k·1 ms) is bit-identical to the old
	// attach-first grid.
	m.Run(settle)
	s := sampleUncore(m, socket, sim.Millisecond, "median")
	s.Reserve(int(window/sim.Millisecond) + 2)
	m.Run(window)
	srt.Reset()
	for _, smp := range s.Samples {
		srt.Add(smp.Value)
	}
	return srt.Median()
}

// coresWithSliceAt returns n (core, slice) pairs on the die whose mesh
// distance is h hops. Cores with an exact-distance slice are preferred; on
// the irregular fused-off floorplan a few cores may lack one, and those
// fall back to the nearest available distance (preferring farther), which
// matches how one would pin threads on the real part.
func coresWithSliceAt(m *system.Machine, socket, h, n int) ([][2]int, error) {
	die := m.Socket(socket).Die
	var out [][2]int
	var fallback []int
	for c := 0; c < die.NumCores() && len(out) < n; c++ {
		if s, ok := die.SliceAtHops(c, h); ok {
			out = append(out, [2]int{c, s})
		} else {
			fallback = append(fallback, c)
		}
	}
	for _, c := range fallback {
		if len(out) >= n {
			break
		}
		for delta := 1; delta < die.Rows+die.Cols; delta++ {
			if s, ok := die.SliceAtHops(c, h+delta); ok {
				out = append(out, [2]int{c, s})
				break
			}
			if h-delta >= 0 {
				if s, ok := die.SliceAtHops(c, h-delta); ok {
					out = append(out, [2]int{c, s})
					break
				}
			}
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("experiments: only %d/%d cores on socket %d usable at %d hops", len(out), n, socket, h)
	}
	return out, nil
}
