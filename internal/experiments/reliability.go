package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/link"
	"repro/internal/channel/ufvariation"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/system"
)

// The reliability experiment extends the paper's §4.3.3 stress study: it
// sweeps the fault injector's intensity knob and compares the raw
// cross-processor channel (no protection, fixed interval) with the ARQ
// transport (CRC-8 framing, retransmission, pilot recalibration, rate
// fallback) over the *same* fault processes. The headline is the paper's
// robustness claim made quantitative: where the raw channel's BER climbs
// past the Hamming correction radius, the transport still delivers the
// payload — trading bit rate, not correctness.

// relRow is one intensity point of the sweep.
type relRow struct {
	Intensity float64
	// RawBER is the unprotected channel's bit error rate at the base
	// interval; LinkBER the pre-ECC error rate the transport's frames
	// actually saw (retransmissions included).
	RawBER, LinkBER float64
	// Delivery is the fraction of payload bytes the transport delivered;
	// ResidualBER the post-ARQ bit error rate over the delivered prefix.
	Delivery, ResidualBER float64
	// Goodput is delivered payload bits per second of air time.
	Goodput float64
	// Retrans, Recal, Degrade count retransmissions, pilot
	// recalibrations, and bit-interval doublings.
	Retrans, Recal, Degrade int
	// Interval is the transport's final bit interval.
	Interval sim.Time
	// Note is empty for a clean delivery, or the transport's error.
	Note string
}

type relResult struct {
	PayloadBytes int
	BaseInterval sim.Time
	Rows         []relRow
}

func (r *relResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Reliability under injected faults (§4.3.3 extension): %d-byte payload,\n", r.PayloadBytes)
	fmt.Fprintf(w, "cross-processor channel at %v base interval, stop-and-wait ARQ transport.\n\n", r.BaseInterval)
	fmt.Fprintf(w, "%9s  %8s  %8s  %9s  %9s  %8s  %8s  %6s  %8s  %9s\n",
		"intensity", "raw BER", "link BER", "delivery", "resid BER", "goodput", "retrans", "recal", "degrade", "interval")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%9.2f  %8.3f  %8.3f  %8.1f%%  %9.4f  %7.2f/s  %8d  %6d  %8d  %9v",
			row.Intensity, row.RawBER, row.LinkBER, row.Delivery*100, row.ResidualBER,
			row.Goodput, row.Retrans, row.Recal, row.Degrade, row.Interval)
		if row.Note != "" {
			fmt.Fprintf(w, "  (%s)", row.Note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nThe raw channel loses bits as the fault intensity rises; the transport")
	fmt.Fprintln(w, "holds delivery by retransmitting, recalibrating, and finally giving up")
	fmt.Fprintln(w, "bit rate (the growing interval), never correctness.")
	return nil
}

// relPlatform builds one faulted platform: the Table 1 machine plus an
// attached injector at the given intensity, both deterministic in the
// experiment seed.
func relPlatform(opts Options, intensity float64) (*relMachine, error) {
	m := opts.machine(platform(opts.Seed))
	inj := faults.New(faults.DefaultConfig(intensity), m.Rand(0xFA017))
	if err := inj.Attach(m); err != nil {
		return nil, err
	}
	return &relMachine{m: m, inj: inj}, nil
}

type relMachine struct {
	m   *system.Machine
	inj *faults.Injector
}

func runReliability(opts Options) (Result, error) {
	intensities := []float64{0, 0.25, 0.5, 0.75, 1}
	payloadBytes := 30
	if opts.Quick {
		intensities = []float64{0, 0.6, 1}
		payloadBytes = 12
	}
	base := ufvariation.DefaultConfig().CrossProcessor()
	payload := make([]byte, payloadBytes)
	prng := sim.NewRand(opts.Seed ^ 0xbadfa017)
	for i := range payload {
		payload[i] = byte(prng.IntN(256))
	}

	res := &relResult{PayloadBytes: payloadBytes, BaseInterval: base.Interval}
	for _, intensity := range intensities {
		if err := opts.Checkpoint("rel: intensity=%v", intensity); err != nil {
			return nil, err
		}
		row := relRow{Intensity: intensity}

		// Raw leg: the unprotected channel at the base interval under
		// the same fault mix.
		{
			plat, err := relPlatform(opts, intensity)
			if err != nil {
				return nil, err
			}
			bits := channel.FromBytes(payload)
			raw, err := ufvariation.Run(plat.m, base, bits)
			if err != nil {
				return nil, err
			}
			rx := plat.inj.CorruptBits(raw.Received)
			row.RawBER = channel.Evaluate(bits, rx, base.Interval).BER
			opts.Release(plat.m)
		}

		// Transport leg: fresh platform, identical fault processes, the
		// full ARQ stack.
		{
			plat, err := relPlatform(opts, intensity)
			if err != nil {
				return nil, err
			}
			phy := &ufvariation.LinkPhy{
				M:       plat.m,
				Cfg:     base,
				Corrupt: plat.inj.CorruptBits,
				AckLoss: plat.inj.AckLost,
			}
			tcfg := link.DefaultTransportConfig()
			tcfg.Interval = base.Interval
			tr := link.NewTransport(phy, tcfg)
			t0 := plat.m.Now()
			got, tstats, terr := tr.Send(payload)
			air := plat.m.Now() - t0

			row.Delivery = float64(len(got)) / float64(len(payload))
			row.ResidualBER = prefixBER(payload, got)
			if air > 0 {
				row.Goodput = float64(len(got)*8) / air.Seconds()
			}
			if phy.RawBits > 0 {
				row.LinkBER = float64(phy.RawErrors) / float64(phy.RawBits)
			}
			row.Retrans = tstats.Retransmissions
			row.Recal = tstats.Recalibrations
			row.Degrade = tstats.Degradations
			row.Interval = tr.Interval()
			if terr != nil {
				row.Note = terr.Error()
			}
			opts.Release(plat.m)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// prefixBER is the bit error rate of got against the matching prefix of
// want, normalised by the full payload so undelivered bytes don't hide.
func prefixBER(want, got []byte) float64 {
	if len(want) == 0 {
		return 0
	}
	errs := 0
	for i, g := range got {
		if i >= len(want) {
			break
		}
		d := g ^ want[i]
		for ; d != 0; d &= d - 1 {
			errs++
		}
	}
	return float64(errs) / float64(len(want)*8)
}

func init() {
	register(Experiment{
		ID:    "rel",
		Title: "Reliability: raw channel vs ARQ transport across fault intensity",
		Run:   runReliability,
	})
}
