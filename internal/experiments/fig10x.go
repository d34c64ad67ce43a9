package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/ufvariation"
	"repro/internal/sim"
)

// Fig10xRow is one channel variant's performance at the paper's two
// operating points.
type Fig10xRow struct {
	Variant                  string
	CrossCoreBER, CrossCoreC float64
	CrossProcBER, CrossProcC float64
}

// Fig10xResult extends Figure 10 across the sender and calibration
// variants Algorithm 1 and §4.3.3 describe: the stalling-loop sender, the
// heavy-traffic-loop alternative, the multi-core sender, and the receiver
// calibrating online instead of from a latency model.
type Fig10xResult struct {
	Rows []Fig10xRow
}

// Render implements Result.
func (r Fig10xResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 10 extension: channel variants at the peak operating points")
	fmt.Fprintln(w, "variant\tcross-core BER@21ms\tcapacity\tcross-proc BER@33ms\tcapacity")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.1f\t%.3f\t%.1f\n",
			row.Variant, row.CrossCoreBER, row.CrossCoreC, row.CrossProcBER, row.CrossProcC)
	}
	return nil
}

// Fig10x evaluates each variant in both scenarios.
func Fig10x(opts Options) (Fig10xResult, error) {
	nbits, trials := 96, 2
	if opts.Quick {
		nbits, trials = 48, 1
	}
	variants := []struct {
		name   string
		mutate func(*ufvariation.Config)
	}{
		{"stalling+model", func(*ufvariation.Config) {}},
		{"stalling+online-cal", func(c *ufvariation.Config) { c.OnlineCalibration = true }},
		{"traffic-loop", func(c *ufvariation.Config) { c.UseTrafficLoop = true }},
		{"six-core-sender", func(c *ufvariation.Config) { c.SenderCores = []int{1, 2, 3, 4, 5} }},
	}
	var res Fig10xResult
	for vi, v := range variants {
		row := Fig10xRow{Variant: v.name}
		for _, cross := range []bool{false, true} {
			if err := opts.Checkpoint("fig10x: variant=%s cross-processor=%v", v.name, cross); err != nil {
				return Fig10xResult{}, err
			}
			var errBits, tot int
			var iv sim.Time
			for trial := 0; trial < trials; trial++ {
				m := opts.machine(platform(opts.Seed + uint64(vi*100+trial)*104729))
				cfg := ufvariation.DefaultConfig()
				cfg.Interval = 21 * sim.Millisecond
				if cross {
					cfg = ufvariation.DefaultConfig().CrossProcessor()
				}
				v.mutate(&cfg)
				iv = cfg.Interval
				bits := channel.RandomBits(m.Rand(uint64(vi*10+trial)), nbits)
				r, err := ufvariation.Run(m, cfg, bits)
				if err != nil {
					return Fig10xResult{}, err
				}
				tot += nbits
				errBits += int(r.BER*float64(nbits) + 0.5)
				opts.Release(m)
			}
			ber := float64(errBits) / float64(tot)
			cap := capacityOf(1/iv.Seconds(), ber)
			if cross {
				row.CrossProcBER, row.CrossProcC = ber, cap
			} else {
				row.CrossCoreBER, row.CrossCoreC = ber, cap
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func init() {
	register(Experiment{ID: "fig10x", Title: "Channel variants at the peak operating points", Run: func(o Options) (Result, error) { return Fig10x(o) }})
}
