package experiments

import (
	"fmt"
	"io"

	"repro/internal/memsys"
	"repro/internal/msr"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Fig8MeasureCore is the tile the paper measures from ("the latencies are
// measured all on core (3,3)").
var Fig8MeasureCore = topo.Coord{Col: 3, Row: 3}

// Fig8SliceTiles are the target slices per hop count (Figure 8 caption).
var Fig8SliceTiles = map[int]topo.Coord{
	0: {Col: 3, Row: 3},
	1: {Col: 2, Row: 3},
	2: {Col: 2, Row: 2},
	3: {Col: 2, Row: 1},
}

// Fig8Result holds the LLC access latency distribution for every uncore
// frequency × hop distance, collected in a 10 ms window like the paper.
type Fig8Result struct {
	Freqs []sim.Freq
	Hops  []int
	// Summary[hopIdx][freqIdx].
	Summary [][]stats.Summary
}

// Render implements Result.
func (r Fig8Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 8: LLC access latency (core cycles) at fixed uncore frequencies")
	for i, h := range r.Hops {
		fmt.Fprintf(w, "(%c) %d-hop access\n", 'a'+i, h)
		fmt.Fprintln(w, "freq_GHz\tp1\tp25\tmedian\tp75\tp99\tmean")
		for j, f := range r.Freqs {
			s := r.Summary[i][j]
			fmt.Fprintf(w, "%.1f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\n",
				f.GHz(), s.P1, s.P25, s.Median, s.P75, s.P99, s.Mean)
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: the uncore is pinned by writing equal min and
// max ratios to UNCORE_RATIO_LIMIT (the Figure 1 register), and the
// measurement loop times LLC hits from core (3,3) to slices 0–3 hops away.
func Fig8(opts Options) (Fig8Result, error) {
	freqs := []sim.Freq{15, 16, 17, 18, 19, 20, 21, 22, 23, 24}
	hops := []int{0, 1, 2, 3}
	if opts.Quick {
		freqs = []sim.Freq{15, 20, 24}
		hops = []int{0, 3}
	}
	res := Fig8Result{Freqs: freqs, Hops: hops}
	var srt stats.Sorter // one summary buffer for the whole grid
	for _, h := range hops {
		row := make([]stats.Summary, len(freqs))
		for j, f := range freqs {
			if err := opts.Checkpoint("fig8: hops=%d freq=%v", h, f); err != nil {
				return Fig8Result{}, err
			}
			samples, err := fig8Samples(opts, h, f)
			if err != nil {
				return Fig8Result{}, err
			}
			row[j] = srt.Load(samples).Summarize()
		}
		res.Summary = append(res.Summary, row)
	}
	return res, nil
}

// fig8Samples pins the uncore at f and collects one 10 ms window of timed
// LLC loads at hop distance h.
func fig8Samples(opts Options, h int, f sim.Freq) ([]float64, error) {
	m := opts.machine(platform(opts.Seed))
	s := m.Socket(0)
	if err := s.MSR.SetRatio(msr.RatioLimit{Min: f, Max: f}); err != nil {
		return nil, err
	}
	coreID := s.Die.CoreIDAt(Fig8MeasureCore)
	if coreID < 0 {
		return nil, fmt.Errorf("experiments: tile %v is not an active core", Fig8MeasureCore)
	}
	sliceTile, ok := Fig8SliceTiles[h]
	if !ok {
		return nil, fmt.Errorf("experiments: no %d-hop slice tile defined", h)
	}
	sliceID := s.Die.CoreIDAt(sliceTile)
	if sliceID < 0 {
		return nil, fmt.Errorf("experiments: tile %v is not an active slice", sliceTile)
	}
	lines, err := memsys.EvictionList(s.Hier, 0, memsys.NewAllocator(), 100, sliceID, 20)
	if err != nil {
		return nil, err
	}
	var all []struct {
		at  sim.Time
		lat float64
	}
	meas := &workload.Measure{
		Lines:      lines,
		PerQuantum: 40,
		Sink: func(at sim.Time, cycles float64) {
			all = append(all, struct {
				at  sim.Time
				lat float64
			}{at, cycles})
		},
	}
	m.Spawn("measure", 0, coreID, 0, meas)
	// Warm up (fill the list into the LLC, settle the pinned governor),
	// then collect a 10 ms window.
	m.Run(30 * sim.Millisecond)
	windowStart := m.Now()
	m.Run(10 * sim.Millisecond)
	var out []float64
	for _, smp := range all {
		if smp.at >= windowStart {
			out = append(out, smp.lat)
		}
	}
	opts.Release(m)
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no latency samples collected")
	}
	return out, nil
}

func init() {
	register(Experiment{ID: "fig8", Title: "LLC latency distributions at fixed uncore frequencies", Run: func(o Options) (Result, error) { return Fig8(o) }})
}
