package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/workload"
)

// Fig3ThreadCounts are the thread counts of Figure 3's columns.
var Fig3ThreadCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 15, 16}

// Fig3TrafficTypes are the row labels: hop distance of every thread's
// target slice, with -1 for the L2-only "None" row.
var Fig3TrafficTypes = []int{-1, 0, 1, 2, 3}

// Fig3Result is the Figure 3 grid: median stabilized uncore frequency
// (GHz) per traffic type and thread count.
type Fig3Result struct {
	Counts []int
	Types  []int
	// Freq[typeIdx][countIdx] in GHz.
	Freq [][]float64
}

func trafficTypeName(h int) string {
	if h < 0 {
		return "None "
	}
	return fmt.Sprintf("%d-hop", h)
}

// Render implements Result.
func (r Fig3Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 3: median uncore frequency (GHz) by thread count and LLC traffic type")
	fmt.Fprint(w, "traffic\\threads")
	for _, c := range r.Counts {
		fmt.Fprintf(w, "\t%d", c)
	}
	fmt.Fprintln(w)
	for i, tt := range r.Types {
		fmt.Fprint(w, trafficTypeName(tt))
		for j := range r.Counts {
			fmt.Fprintf(w, "\t%.1f", r.Freq[i][j])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig3 reproduces Figure 3: launch t traffic threads pinned to distinct
// cores, each saturating a target LLC slice at a fixed hop distance, and
// record the stabilized uncore frequency (§3.1).
func Fig3(opts Options) (Fig3Result, error) {
	counts := Fig3ThreadCounts
	types := Fig3TrafficTypes
	if opts.Quick {
		counts = []int{1, 2, 7, 16}
	}
	res := Fig3Result{Counts: counts, Types: types}
	settle, window := 1500*sim.Millisecond, 500*sim.Millisecond
	if opts.Quick {
		settle = 800 * sim.Millisecond
	}
	var srt stats.Sorter // one median buffer for the whole grid
	for _, tt := range types {
		row := make([]float64, len(counts))
		for j, n := range counts {
			if err := opts.Checkpoint("fig3: traffic=%s threads=%d", trafficTypeName(tt), n); err != nil {
				return Fig3Result{}, err
			}
			m := opts.machine(platform(opts.Seed))
			if tt < 0 {
				for i := 0; i < n; i++ {
					m.Spawn(fmt.Sprintf("l2chase-%d", i), 0, i, 0, workload.L2Chase{})
				}
			} else {
				pairs, err := coresWithSliceAt(m, 0, tt, n)
				if err != nil {
					return Fig3Result{}, err
				}
				for i, cs := range pairs {
					m.Spawn(fmt.Sprintf("traffic-%d", i), 0, cs[0], 0, &workload.Traffic{Slice: cs[1]})
				}
			}
			row[j] = medianFreqWith(m, 0, settle, window, &srt)
			opts.Release(m)
		}
		res.Freq = append(res.Freq, row)
	}
	return res, nil
}

// Fig3Expected is the grid published in the paper, for comparison in
// EXPERIMENTS.md and the regression test.
var Fig3Expected = map[int][]float64{
	-1: {1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5},
	0:  {2.1, 2.2, 2.3, 2.3, 2.3, 2.3, 2.3, 2.3, 2.3, 2.3},
	1:  {2.2, 2.2, 2.3, 2.3, 2.3, 2.3, 2.4, 2.4, 2.4, 2.4},
	2:  {2.3, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4},
	3:  {2.4, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4, 2.4},
}

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Median uncore frequency vs thread count and LLC traffic type",
		Run: func(o Options) (Result, error) {
			return Fig3(o)
		},
	})
}

var _ system.Workload = workload.L2Chase{}
