package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// Sec32Result reproduces the §3.2 perf-counter study: the ratio of
// cycle_activity.stalls_mem_any to cycles for the three loop kinds.
type Sec32Result struct {
	ChaseRatio, TrafficRatio, L2ChaseRatio float64
}

// Render implements Result.
func (r Sec32Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "§3.2: stall-cycle ratios (cycle_activity.stalls_mem_any / cycles)")
	fmt.Fprintf(w, "pointer-chase (LLC): %.2f (paper ≈0.77)\n", r.ChaseRatio)
	fmt.Fprintf(w, "traffic loop:        %.2f (paper ≈0.3)\n", r.TrafficRatio)
	fmt.Fprintf(w, "pointer-chase (L2):  %.2f (paper ≈0.14)\n", r.L2ChaseRatio)
	return nil
}

// Sec32 runs each loop for one second and reads its core's counters, as
// the paper does with Linux perf.
func Sec32(opts Options) (Sec32Result, error) {
	if err := opts.Checkpoint("sec32: stall-ratio probes"); err != nil {
		return Sec32Result{}, err
	}
	measure := func(mk func(m *system.Machine) system.Workload) float64 {
		m := opts.machine(platform(opts.Seed))
		t := m.Spawn("probe", 0, 0, 0, mk(m))
		m.Run(sim.Second)
		ratio := t.Core.Total.StallRatio()
		opts.Release(m)
		return ratio
	}
	res := Sec32Result{
		ChaseRatio: measure(func(m *system.Machine) system.Workload {
			slice, _ := m.Socket(0).Die.SliceAtHops(0, 0)
			return &workload.Stalling{Slice: slice}
		}),
		TrafficRatio: measure(func(m *system.Machine) system.Workload {
			slice, _ := m.Socket(0).Die.SliceAtHops(0, 0)
			return &workload.Traffic{Slice: slice}
		}),
		L2ChaseRatio: measure(func(*system.Machine) system.Workload { return workload.L2Chase{} }),
	}
	return res, nil
}

func init() {
	register(Experiment{ID: "sec32", Title: "Stall-cycle ratios of the characterisation loops", Run: func(o Options) (Result, error) { return Sec32(o) }})
}
