package experiments

import (
	"fmt"
	"io"

	"repro/internal/sidechannel"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// Fig11Result is the Figure 11 file-size-profiling study: traces for the
// paper's example sizes plus the classification accuracy at 300 KB
// granularity.
type Fig11Result struct {
	Sizes  []int
	Traces []*trace.Series
	Dwell  []sim.Time
	// Accuracy is the fraction of sweep jobs classified to the correct
	// 300 KB bucket (§5: "over 99 %").
	Accuracy float64
	Trials   int
}

// Render implements Result.
func (r Fig11Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 11: uncore frequency traces while the victim compresses files")
	for i, s := range r.Sizes {
		fmt.Fprintf(w, "%d KB: low-frequency dwell %.0f ms (trace %d samples)\n",
			s, r.Dwell[i].Milliseconds(), len(r.Traces[i].Samples))
	}
	fmt.Fprintf(w, "size classification at 300 KB granularity: %.1f%% over %d trials (paper >99%%)\n",
		r.Accuracy*100, r.Trials)
	return nil
}

// Fig11 reproduces Figure 11 and the §5 accuracy claim.
func Fig11(opts Options) (Fig11Result, error) {
	res := Fig11Result{Sizes: []int{1024, 3072, 5120}}
	for _, size := range res.Sizes {
		if err := opts.Checkpoint("fig11: trace size=%dKB", size); err != nil {
			return Fig11Result{}, err
		}
		m := opts.machine(platform(opts.Seed))
		tr, err := sidechannel.CompressionTrace(m, size, 100*sim.Millisecond, 1200*sim.Millisecond)
		if err != nil {
			return Fig11Result{}, err
		}
		res.Traces = append(res.Traces, tr)
		res.Dwell = append(res.Dwell, sidechannel.DwellTime(tr, 3*sim.Millisecond))
		opts.Release(m)
	}

	// The attacker calibrates its dwell→size model on two reference
	// jobs of known size (its own training runs).
	model := sidechannel.FitDwell(
		res.Sizes[0], res.Dwell[0],
		res.Sizes[2], res.Dwell[2])

	// Accuracy sweep: candidate sizes 300 KB apart; each job must be
	// classified back to its bucket.
	var candidates []int
	for s := 600; s <= 5400; s += 300 {
		candidates = append(candidates, s)
	}
	sweep := candidates
	if opts.Quick {
		sweep = candidates[:6]
	}
	correct := 0
	for i, size := range sweep {
		if err := opts.Checkpoint("fig11: classify size=%dKB", size); err != nil {
			return Fig11Result{}, err
		}
		m := opts.machine(platform(opts.Seed + uint64(i)*37))
		tr, err := sidechannel.CompressionTrace(m, size, 100*sim.Millisecond, 1400*sim.Millisecond)
		if err != nil {
			return Fig11Result{}, err
		}
		est := model.SizeKB(sidechannel.DwellTime(tr, 3*sim.Millisecond))
		if sidechannel.ClassifySize(est, candidates) == size {
			correct++
		}
		opts.Release(m)
	}
	res.Trials = len(sweep)
	res.Accuracy = float64(correct) / float64(len(sweep))
	return res, nil
}

// Fig12Result is the website-fingerprinting evaluation.
type Fig12Result struct {
	Report sidechannel.FingerprintReport
	// Example traces for the figure's named sites.
	Examples map[string]*trace.Series
}

// Render implements Result.
func (r Fig12Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 12 / §5: website fingerprinting over %d sites (%d train, %d test visits per site)\n",
		r.Report.Sites, r.Report.TrainPerSite, r.Report.TestPerSite)
	fmt.Fprintf(w, "top-1 accuracy: %.2f%% (paper 82.18%%)\n", r.Report.Top1*100)
	fmt.Fprintf(w, "top-5 accuracy: %.2f%% (paper 91.48%%)\n", r.Report.Top5*100)
	if r.Report.Confusion != nil {
		if top := r.Report.Confusion.MostConfused(5); len(top) > 0 {
			fmt.Fprintln(w, "most-confused site pairs:")
			for _, p := range top {
				fmt.Fprintf(w, "  %s mistaken for %s (%d times)\n", p.Truth, p.Predicted, p.Count)
			}
		}
	}
	return nil
}

// Fig12 reproduces the §5 website-fingerprinting attack. The full run
// uses the paper's 100 sites; Quick shrinks the corpus.
func Fig12(opts Options) (Fig12Result, error) {
	nsites, train, test := 100, 4, 2
	if opts.Quick {
		nsites, train, test = 12, 3, 1
	}
	if err := opts.Checkpoint("fig12: fingerprint %d sites", nsites); err != nil {
		return Fig12Result{}, err
	}
	rep, err := fingerprint(opts, nsites, train, test, nil)
	if err != nil {
		return Fig12Result{}, err
	}
	return Fig12Result{Report: rep}, nil
}

// fingerprint runs the §5 evaluation with one machine per visit, seeded
// opts.Seed+1, opts.Seed+2, … and handed to prepare, if non-nil, before
// the visit. Visits run strictly one at a time, so each visit's machine
// is released before the next is drawn.
func fingerprint(opts Options, nsites, train, test int, prepare func(*system.Machine)) (sidechannel.FingerprintReport, error) {
	seed := opts.Seed
	var prev *system.Machine
	visit := func() *system.Machine {
		opts.Release(prev)
		seed++
		prev = opts.machine(platform(seed))
		if prepare != nil {
			prepare(prev)
		}
		return prev
	}
	rep, err := sidechannel.Fingerprint(visit, sidechannel.Sites(nsites), train, test)
	opts.Release(prev)
	return rep, err
}

func init() {
	register(Experiment{ID: "fig11", Title: "File-size profiling via UFS", Run: func(o Options) (Result, error) { return Fig11(o) }})
	register(Experiment{ID: "fig12", Title: "Website fingerprinting via UFS", Run: func(o Options) (Result, error) { return Fig12(o) }})
}
