package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RampResult covers Figures 5, 6 and 7: a frequency trace around a
// workload phase switch, with the measured step spacings.
type RampResult struct {
	Title string
	// Traces holds one series per socket of interest, sampled every
	// 200 µs as in §3.3.
	Traces []*trace.Series
	// SwitchAt is when the workload switched.
	SwitchAt sim.Time
	// StepMS lists the spacing (ms) between successive frequency steps
	// of the first trace after the switch — the ≈10 ms annotations of
	// Figures 5 and 6.
	StepMS []float64
}

// Render implements Result.
func (r RampResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Title)
	fmt.Fprintf(w, "workload switch at %v\n", r.SwitchAt)
	fmt.Fprint(w, "step spacings (ms):")
	for _, s := range r.StepMS {
		fmt.Fprintf(w, " %.1f", s)
	}
	fmt.Fprintln(w)
	return trace.WriteTSV(w, r.Traces...)
}

// stepSpacings extracts the spacing between frequency changes after the
// switch instant.
func stepSpacings(s *trace.Series, after sim.Time) []float64 {
	var out []float64
	prev := after
	for _, st := range s.StepTimes() {
		if st <= after {
			continue
		}
		out = append(out, (st - prev).Milliseconds())
		prev = st
	}
	return out
}

// Fig5 reproduces Figure 5: a nop loop switches to a stalling loop at
// t=40 ms; the uncore frequency climbs 100 MHz roughly every 10 ms until
// it reaches the maximum.
func Fig5(opts Options) (RampResult, error) {
	return rampExperiment(opts, "Figure 5: uncore frequency trace upon initiating the stalling loop", true)
}

// Fig6 reproduces Figure 6: the stalling loop stops and the frequency
// steps back down every ~10 ms.
func Fig6(opts Options) (RampResult, error) {
	return rampExperiment(opts, "Figure 6: uncore frequency trace upon stopping the stalling loop", false)
}

func rampExperiment(opts Options, title string, startStalling bool) (RampResult, error) {
	if err := opts.Checkpoint("ramp: %s", title); err != nil {
		return RampResult{}, err
	}
	m := opts.machine(platform(opts.Seed))
	switchAt := 40 * sim.Millisecond
	slice, _ := m.Socket(0).Die.SliceAtHops(0, 0)
	var w *workload.Phased
	if startStalling {
		w = &workload.Phased{Phases: []workload.Phase{
			{Until: switchAt, W: workload.Nop{}},
			{Until: 400 * sim.Millisecond, W: &workload.Stalling{Slice: slice}},
		}}
	} else {
		// Pre-warm: stall long enough to saturate, then switch to nop.
		switchAt = 140 * sim.Millisecond
		w = &workload.Phased{Phases: []workload.Phase{
			{Until: switchAt, W: &workload.Stalling{Slice: slice}},
			{Until: 500 * sim.Millisecond, W: workload.Nop{}},
		}}
	}
	m.Spawn("phase", 0, 0, 0, w)
	tr := sampleUncore(m, 0, 200*sim.Microsecond, "socket0")
	m.Run(switchAt + 170*sim.Millisecond)
	opts.Release(m)
	return RampResult{
		Title:    title,
		Traces:   []*trace.Series{tr},
		SwitchAt: switchAt,
		StepMS:   stepSpacings(tr, switchAt),
	}, nil
}

// Fig7 reproduces Figure 7: the stalling loop runs on socket 0 only, yet
// socket 1's uncore follows with a ~10 ms lag and stabilises 100 MHz lower
// (§3.4).
func Fig7(opts Options) (RampResult, error) {
	if err := opts.Checkpoint("fig7: cross-socket ramp"); err != nil {
		return RampResult{}, err
	}
	m := opts.machine(platform(opts.Seed))
	switchAt := 40 * sim.Millisecond
	slice, _ := m.Socket(0).Die.SliceAtHops(0, 0)
	m.Spawn("phase", 0, 0, 0, &workload.Phased{Phases: []workload.Phase{
		{Until: switchAt, W: workload.Nop{}},
		{Until: 400 * sim.Millisecond, W: &workload.Stalling{Slice: slice}},
	}})
	t0 := sampleUncore(m, 0, 200*sim.Microsecond, "socket0")
	t1 := sampleUncore(m, 1, 200*sim.Microsecond, "socket1")
	m.Run(switchAt + 170*sim.Millisecond)
	opts.Release(m)
	return RampResult{
		Title:    "Figure 7: uncore frequency traces on both processors (stalling loop on processor 0)",
		Traces:   []*trace.Series{t0, t1},
		SwitchAt: switchAt,
		StepMS:   stepSpacings(t0, switchAt),
	}, nil
}

func init() {
	register(Experiment{ID: "fig5", Title: "Frequency ramp-up on stalling-loop start", Run: func(o Options) (Result, error) { return Fig5(o) }})
	register(Experiment{ID: "fig6", Title: "Frequency ramp-down on stalling-loop stop", Run: func(o Options) (Result, error) { return Fig6(o) }})
	register(Experiment{ID: "fig7", Title: "Cross-socket frequency coupling", Run: func(o Options) (Result, error) { return Fig7(o) }})
}
