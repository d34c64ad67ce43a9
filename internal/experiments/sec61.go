package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/ufvariation"
	"repro/internal/defense"
	"repro/internal/sim"
)

// Sec61Case is one §6.1 countermeasure evaluation.
type Sec61Case struct {
	Name       string
	BER        float64
	Capacity   float64
	Functional bool
}

// Sec61Result covers the §6.1 countermeasure study: UF-variation against
// each UFS-specific mitigation.
type Sec61Result struct {
	Cases []Sec61Case
}

// Render implements Result.
func (r Sec61Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "§6.1: UF-variation vs UFS countermeasures")
	fmt.Fprintln(w, "countermeasure\tBER\tcapacity_bps\tfunctional")
	for _, c := range r.Cases {
		fmt.Fprintf(w, "%s\t%.3f\t%.1f\t%v\n", c.Name, c.BER, c.Capacity, c.Functional)
	}
	return nil
}

// Sec61Expected is the paper's conclusion per countermeasure: whether the
// covert channel remains functional.
var Sec61Expected = map[string]bool{
	"none":             true,
	"fixed-frequency":  false,
	"random-frequency": false,
	"restricted-range": true, // §6.1: "this method cannot stop the covert channel"
	"busy-uncore":      false,
}

// Sec61 runs UF-variation under every §6.1 countermeasure.
func Sec61(opts Options) (Sec61Result, error) {
	nbits := 64
	if opts.Quick {
		nbits = 32
	}
	cases := []struct {
		name string
		cm   defense.Countermeasure
	}{
		{"none", defense.NoCountermeasure},
		{"fixed-frequency", defense.FixedFrequency},
		{"random-frequency", defense.RandomizedFrequency},
		{"restricted-range", defense.RestrictedRange},
		{"busy-uncore", defense.BusyUncore},
	}
	var res Sec61Result
	for _, c := range cases {
		if err := opts.Checkpoint("sec61: countermeasure=%s", c.name); err != nil {
			return Sec61Result{}, err
		}
		m := opts.machine(platform(opts.Seed))
		// Countermeasures deploy on every socket, as system software
		// would.
		for s := range m.Sockets() {
			if err := defense.Deploy(c.cm, m, s, 0); err != nil {
				return Sec61Result{}, err
			}
		}
		cfg := ufvariation.DefaultConfig()
		cfg.Interval = 21 * sim.Millisecond
		if c.cm == defense.RestrictedRange {
			// The restricted band tops out at 1.7 GHz; the receiver
			// calibrates its latency references accordingly.
			cfg.MaxFreqOverride = 17
		}
		bits := channel.RandomBits(m.Rand(sim.HashString(c.name)), nbits)
		r, err := ufvariation.Run(m, cfg, bits)
		if err != nil {
			return Sec61Result{}, err
		}
		opts.Release(m)
		res.Cases = append(res.Cases, Sec61Case{
			Name:       c.name,
			BER:        r.BER,
			Capacity:   r.Capacity,
			Functional: r.Functional(),
		})
	}
	return res, nil
}

func init() {
	register(Experiment{ID: "sec61", Title: "UF-variation vs UFS countermeasures", Run: func(o Options) (Result, error) { return Sec61(o) }})
}
