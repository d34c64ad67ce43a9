package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig4Result is Figure 4: the stabilized uncore frequency (GHz) as a
// function of the number of stalled cores and active-but-unstalled cores.
type Fig4Result struct {
	// Stalled lists the row labels (number of stalling threads).
	Stalled []int
	// Unstalled lists the column labels.
	Unstalled []int
	// Freq[i][j] is the stabilized frequency in GHz.
	Freq [][]float64
}

// Render implements Result.
func (r Fig4Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 4: uncore frequency (GHz) vs stalled / unstalled active cores")
	fmt.Fprint(w, "stalled\\unstalled")
	for _, u := range r.Unstalled {
		fmt.Fprintf(w, "\t%d", u)
	}
	fmt.Fprintln(w)
	for i, s := range r.Stalled {
		fmt.Fprintf(w, "%d", s)
		for j := range r.Unstalled {
			if r.Freq[i][j] < 0 {
				fmt.Fprint(w, "\t-")
			} else {
				fmt.Fprintf(w, "\t%.1f", r.Freq[i][j])
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig4Rule is the paper's §3.2/§3.5 conclusion, used for comparison: with
// s stalled and k unstalled active cores the uncore settles at the maximum
// when s/(s+k) > 1/3, at an intermediate point down to 1/4, and otherwise
// follows (negligible) utilisation down to the idle point.
func Fig4Rule(s, k int) float64 {
	switch {
	case 3*s > s+k:
		return 2.4
	case 4*s > s+k:
		return 1.8
	default:
		return 1.5
	}
}

// Fig4 reproduces Figure 4: s pointer-chase threads (stalled cores)
// alongside k compute threads (active, unstalled), sweeping k for each s
// in 1..5.
func Fig4(opts Options) (Fig4Result, error) {
	stalled := []int{1, 2, 3, 4, 5}
	unstalled := make([]int, 0, 16)
	step := 1
	if opts.Quick {
		step = 3
		stalled = []int{1, 3, 5}
	}
	for k := 0; k <= 15; k += step {
		unstalled = append(unstalled, k)
	}
	res := Fig4Result{Stalled: stalled, Unstalled: unstalled}
	var srt stats.Sorter // one median buffer for the whole grid
	for _, s := range stalled {
		row := make([]float64, len(unstalled))
		for j, k := range unstalled {
			if s+k > 16 {
				row[j] = -1 // more threads than cores
				continue
			}
			if err := opts.Checkpoint("fig4: stalled=%d unstalled=%d", s, k); err != nil {
				return Fig4Result{}, err
			}
			m := opts.machine(platform(opts.Seed))
			core := 0
			for i := 0; i < s; i++ {
				// Each stalling thread chases its local slice.
				slice, _ := m.Socket(0).Die.SliceAtHops(core, 0)
				m.Spawn(fmt.Sprintf("stall-%d", i), 0, core, 0, &workload.Stalling{Slice: slice})
				core++
			}
			for i := 0; i < k; i++ {
				m.Spawn(fmt.Sprintf("busy-%d", i), 0, core, 0, workload.Nop{})
				core++
			}
			row[j] = medianFreqWith(m, 0, 1200*sim.Millisecond, 400*sim.Millisecond, &srt)
			opts.Release(m)
		}
		res.Freq = append(res.Freq, row)
	}
	return res, nil
}

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Uncore frequency vs proportion of stalled active cores",
		Run: func(o Options) (Result, error) {
			return Fig4(o)
		},
	})
}
