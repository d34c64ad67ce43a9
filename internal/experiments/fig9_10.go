package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/ufvariation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig9Result is the Figure 9 example transmission: the LLC latency trace
// and the uncore frequency trace while sending "1101001011" with a 38 ms
// interval.
type Fig9Result struct {
	Res  ufvariation.Result
	Freq *trace.Series
}

// Render implements Result.
func (r Fig9Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9: sending \"1101001011\" via UF-variation (38 ms interval, 1-hop latencies)")
	fmt.Fprintf(w, "sent:     %v\n", r.Res.Sent)
	fmt.Fprintf(w, "received: %v\n", r.Res.Received)
	fmt.Fprintf(w, "BER: %.3f\n", r.Res.BER)
	fmt.Fprintln(w, "uncore frequency trace (GHz):")
	return trace.WriteTSV(w, r.Freq)
}

// Fig9 reproduces Figure 9.
func Fig9(opts Options) (Fig9Result, error) {
	if err := opts.Checkpoint("fig9: example transmission"); err != nil {
		return Fig9Result{}, err
	}
	m := opts.machine(platform(opts.Seed))
	cfg := ufvariation.DefaultConfig()
	cfg.RecordTraces = true
	freq := sampleUncore(m, 0, sim.Millisecond, "uncore_ghz")
	res, err := ufvariation.Run(m, cfg, channel.Bits{1, 1, 0, 1, 0, 0, 1, 0, 1, 1})
	if err != nil {
		return Fig9Result{}, err
	}
	opts.Release(m)
	return Fig9Result{Res: res, Freq: freq}, nil
}

// Fig10Point is one sweep point of Figure 10.
type Fig10Point struct {
	Interval sim.Time
	RawRate  float64
	BER      float64
	Capacity float64
}

// Fig10Result is the capacity/error sweep for one scenario.
type Fig10Result struct {
	CrossCore, CrossProcessor []Fig10Point
}

// Render implements Result.
func (r Fig10Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 10: channel capacity and bit error rate vs raw transmission rate")
	for _, sc := range []struct {
		name string
		pts  []Fig10Point
	}{{"cross-core", r.CrossCore}, {"cross-processor", r.CrossProcessor}} {
		fmt.Fprintf(w, "%s:\n", sc.name)
		fmt.Fprintln(w, "interval_ms\traw_bps\tBER\tcapacity_bps")
		for _, p := range sc.pts {
			fmt.Fprintf(w, "%.0f\t%.1f\t%.3f\t%.1f\n", p.Interval.Milliseconds(), p.RawRate, p.BER, p.Capacity)
		}
		best := PeakCapacity(sc.pts)
		fmt.Fprintf(w, "peak capacity: %.1f bit/s at %.1f bit/s raw (%.0f ms interval)\n",
			best.Capacity, best.RawRate, best.Interval.Milliseconds())
	}
	return nil
}

// PeakCapacity returns the sweep point with the highest capacity.
func PeakCapacity(pts []Fig10Point) Fig10Point {
	var best Fig10Point
	for _, p := range pts {
		if p.Capacity > best.Capacity {
			best = p
		}
	}
	return best
}

// Fig10Intervals is the sweep grid (ms).
var Fig10Intervals = []int{12, 14, 16, 18, 20, 21, 23, 25, 28, 33, 38, 45, 55, 70, 90}

// Fig10 reproduces Figure 10: sweep the transmission interval for the
// cross-core and cross-processor channels, sending random payloads and
// measuring BER and capacity (§4.3.2).
func Fig10(opts Options) (Fig10Result, error) {
	intervals := Fig10Intervals
	bitsPerTrial, trials := 96, 3
	if opts.Quick {
		intervals = []int{14, 21, 38, 70}
		bitsPerTrial, trials = 48, 1
	}
	sweep := func(cross bool) ([]Fig10Point, error) {
		var pts []Fig10Point
		for _, ms := range intervals {
			if err := opts.Checkpoint("fig10: cross-processor=%v interval=%dms", cross, ms); err != nil {
				return nil, err
			}
			iv := sim.Time(ms) * sim.Millisecond
			var errBits, totBits int
			for trial := 0; trial < trials; trial++ {
				m := opts.machine(platform(opts.Seed + uint64(trial)*7919))
				cfg := ufvariation.DefaultConfig()
				if cross {
					cfg = cfg.CrossProcessor()
				}
				cfg.Interval = iv
				// Start phase varies between trials so interval/epoch
				// alignment is averaged over, as for a real attacker.
				cfg.Lead = 40*sim.Millisecond + sim.Time(trial)*3700*sim.Microsecond
				bits := channel.RandomBits(m.Rand(uint64(ms)*31+uint64(trial)), bitsPerTrial)
				res, err := ufvariation.Run(m, cfg, bits)
				if err != nil {
					return nil, err
				}
				totBits += len(bits)
				errBits += int(res.BER*float64(len(bits)) + 0.5)
				opts.Release(m)
			}
			ber := float64(errBits) / float64(totBits)
			rate := 1 / iv.Seconds()
			pts = append(pts, Fig10Point{
				Interval: iv,
				RawRate:  rate,
				BER:      ber,
				Capacity: capacityOf(rate, ber),
			})
		}
		return pts, nil
	}
	cc, err := sweep(false)
	if err != nil {
		return Fig10Result{}, err
	}
	cp, err := sweep(true)
	if err != nil {
		return Fig10Result{}, err
	}
	return Fig10Result{CrossCore: cc, CrossProcessor: cp}, nil
}

func init() {
	register(Experiment{ID: "fig9", Title: "Example UF-variation transmission trace", Run: func(o Options) (Result, error) { return Fig9(o) }})
	register(Experiment{ID: "fig10", Title: "Channel capacity and BER vs transmission rate", Run: func(o Options) (Result, error) { return Fig10(o) }})
}
