package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/link"
	"repro/internal/channel/ufvariation"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The sync experiment quantifies the self-synchronizing receiver: the
// paper's §4.3.2 threat model grants sender and receiver a shared
// timestamp counter, and the decode collapses as soon as that assumption
// slips — a clock-rate error walks the measurement windows off the
// sender's intervals, an unknown start phase misplaces them entirely,
// and a long receiver preemption desynchronizes the stream mid-frame.
// Part A sweeps clock skew against payload length with the symbol
// tracker off and on; part B starts the receiver at an unknown phase and
// lets frame acquisition find the sender in-band; part C runs the ARQ
// transport under the combined synchronization fault mix (unknown start
// phase, wandering clock, random blackouts) and reports the resync
// escalation's work: desync verdicts, pilot recalibrations, full
// reacquisitions, and forced rate fallbacks.

// syncSkewRow is one (skew, payload) cell of part A, tracker off vs on.
type syncSkewRow struct {
	PPM  float64
	Bits int
	// UntrackedBER is the fixed-window §4.3.2 decode; TrackedBER the
	// DLL-tracked decode of the same transmission parameters.
	UntrackedBER, TrackedBER float64
	// PPMEst is the tracker's final clock-error estimate; Locked its
	// end-of-frame lock verdict.
	PPMEst float64
	Locked bool
}

// syncOffsetRow is one unknown-start-phase cell of part B.
type syncOffsetRow struct {
	OffsetBits float64
	Tracked    bool
	BER        float64
	Acquired   bool
	Score      float64
	// OriginErr is the signed error of the acquired origin against the
	// true start offset.
	OriginErr sim.Time
}

// syncTransportRow is one transport leg of part C.
type syncTransportRow struct {
	Label                 string
	Delivery, ResidualBER float64
	Desyncs, Reacq        int
	Recal, Degrade        int
	Retrans               int
	Blackouts             int
	Interval              sim.Time
	Note                  string
}

type syncResult struct {
	Interval     sim.Time
	PayloadBytes int
	Skews        []syncSkewRow
	Offsets      []syncOffsetRow
	Transport    []syncTransportRow
}

func (r *syncResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Self-synchronizing receiver (§4.3.2 synchronisation assumption relaxed),\n")
	fmt.Fprintf(w, "cross-core channel at %v bit interval.\n\n", r.Interval)

	fmt.Fprintln(w, "A. Clock skew × payload length, symbol tracker off vs on:")
	fmt.Fprintf(w, "%8s  %6s  %10s  %9s  %8s  %7s\n",
		"skew", "bits", "fixed BER", "DLL BER", "ppm est", "locked")
	for _, row := range r.Skews {
		fmt.Fprintf(w, "%5.0fppm  %6d  %10.3f  %9.3f  %8.0f  %7v\n",
			row.PPM, row.Bits, row.UntrackedBER, row.TrackedBER, row.PPMEst, row.Locked)
	}

	fmt.Fprintln(w, "\nB. Unknown start phase (no shared start instant), preamble acquisition:")
	fmt.Fprintf(w, "%11s  %8s  %8s  %9s  %7s  %11s\n",
		"offset", "tracker", "BER", "acquired", "score", "origin err")
	for _, row := range r.Offsets {
		mode := "off"
		if row.Tracked {
			mode = "on"
		}
		fmt.Fprintf(w, "%8.1fbit  %8s  %8.3f  %9v  %7.3f  %11v\n",
			row.OffsetBits, mode, row.BER, row.Acquired, row.Score, row.OriginErr)
	}

	fmt.Fprintf(w, "\nC. ARQ transport under combined sync faults (unknown phase, wandering\n")
	fmt.Fprintf(w, "   clock, random blackouts), %d-byte payload:\n", r.PayloadBytes)
	fmt.Fprintf(w, "%9s  %8s  %9s  %7s  %6s  %6s  %8s  %8s  %9s\n",
		"receiver", "delivery", "resid BER", "desyncs", "reacq", "recal", "degrade", "retrans", "interval")
	for _, row := range r.Transport {
		fmt.Fprintf(w, "%9s  %7.1f%%  %9.4f  %7d  %6d  %6d  %8d  %8d  %9v",
			row.Label, row.Delivery*100, row.ResidualBER,
			row.Desyncs, row.Reacq, row.Recal, row.Degrade, row.Retrans, row.Interval)
		if row.Note != "" {
			fmt.Fprintf(w, "  (%s)", row.Note)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\nWithout the tracker the channel only works inside the paper's shared-TSC")
	fmt.Fprintln(w, "assumption: skew wrecks long payloads and an unknown start phase wrecks")
	fmt.Fprintln(w, "everything. The synchronization layer recovers both in-band — the DLL")
	fmt.Fprintln(w, "cancels the clock error it estimates, acquisition finds the sender's")
	fmt.Fprintln(w, "phase from the calibration preamble, and the transport's escalation")
	fmt.Fprintln(w, "(pilot, reacquisition, rate fallback) turns desync verdicts into")
	fmt.Fprintln(w, "delivered frames instead of retransmission storms.")
	return nil
}

func runSync(opts Options) (Result, error) {
	base := ufvariation.DefaultConfig()
	base.Interval = 21 * sim.Millisecond

	skews := []float64{0, 500, 2000}
	lengths := []int{48, 256}
	offsets := []float64{0.5, 2.5}
	payloadBytes := 18
	if opts.Quick {
		skews = []float64{0, 2000}
		lengths = []int{96}
		offsets = []float64{2.5}
		payloadBytes = 6
	}

	res := &syncResult{Interval: base.Interval, PayloadBytes: payloadBytes}

	// Part A: skew × payload, tracker off vs on, same transmission
	// parameters per cell.
	cell := uint64(0)
	for _, ppm := range skews {
		for _, n := range lengths {
			if err := opts.Checkpoint("sync: skew=%v bits=%d", ppm, n); err != nil {
				return nil, err
			}
			row := syncSkewRow{PPM: ppm, Bits: n}
			for _, track := range []bool{false, true} {
				m := opts.machine(platform(opts.Seed))
				cfg := base
				cfg.SkewPPM = ppm
				cfg.Track = track
				bits := channel.RandomBits(m.Rand(0x51AC+cell), n)
				r, err := ufvariation.Run(m, cfg, bits)
				if err != nil {
					return nil, err
				}
				opts.Release(m)
				if track {
					row.TrackedBER = r.BER
					if r.Sync != nil {
						row.PPMEst = r.Sync.PPMEst
						row.Locked = r.Sync.Locked
					}
				} else {
					row.UntrackedBER = r.BER
				}
			}
			cell++
			res.Skews = append(res.Skews, row)
		}
	}

	// Part B: unknown start phase. The tracked receiver hunts the
	// calibration preamble; the untracked contrast row shows what the
	// fixed-window decode makes of the same offset.
	offsetLeg := func(offsetBits float64, track bool) error {
		m := opts.machine(platform(opts.Seed))
		cfg := base
		cfg.OnlineCalibration = true
		cfg.Track = track
		cfg.StartOffset = sim.Time(offsetBits * float64(base.Interval))
		bits := channel.RandomBits(m.Rand(0x0FF5+cell), 96)
		cell++
		r, err := ufvariation.Run(m, cfg, bits)
		if err != nil {
			return err
		}
		opts.Release(m)
		row := syncOffsetRow{OffsetBits: offsetBits, Tracked: track, BER: r.BER}
		if r.Sync != nil {
			row.Acquired = r.Sync.Acquired
			row.Score = r.Sync.AcquireScore
			row.OriginErr = r.Sync.Origin - cfg.StartOffset
		}
		res.Offsets = append(res.Offsets, row)
		return nil
	}
	for _, ob := range offsets {
		if err := opts.Checkpoint("sync: offset=%.1f bits", ob); err != nil {
			return nil, err
		}
		if err := offsetLeg(ob, true); err != nil {
			return nil, err
		}
	}
	if err := offsetLeg(offsets[len(offsets)-1], false); err != nil {
		return nil, err
	}

	// Part C: the transport under the combined synchronization fault
	// mix. The tracked leg must deliver by escalating (pilot →
	// reacquisition → rate fallback); the untracked leg shows the same
	// faults defeating a fixed-window receiver at every rate.
	payload := make([]byte, payloadBytes)
	prng := sim.NewRand(opts.Seed ^ 0x5edc)
	for i := range payload {
		payload[i] = byte(prng.IntN(256))
	}
	transportLeg := func(label string, track bool) error {
		m := opts.machine(platform(opts.Seed))
		inj := faults.New(faults.Config{
			StartOffsetBits:   2.5,
			WanderAmpPPM:      1500,
			WanderPeriod:      2 * sim.Second,
			DesyncPreemptProb: 0.25,
			DesyncPreemptBits: 8,
		}, m.Rand(0xFA5C))
		phy := &ufvariation.LinkPhy{M: m, Cfg: base, Track: track}
		phy.Cfg.SkewPPM = 1200
		phy.SyncFaults = func(c *ufvariation.Config, totalBits int) {
			c.StartOffset = inj.StartOffset(c.Interval)
			c.Clock = inj.ReceiverClock(c.SkewPPM)
			c.Preemptions = nil
			if at, dur, ok := inj.DesyncPreemption(totalBits, c.Interval); ok {
				c.Preemptions = []ufvariation.Preemption{{At: at, Dur: dur}}
			}
		}
		tcfg := link.DefaultTransportConfig()
		tcfg.Interval = base.Interval
		// Two rate-halving steps of headroom: enough for the escalation
		// to matter, bounded so a hopeless receiver fails finitely.
		tcfg.MaxInterval = 4 * base.Interval
		tr := link.NewTransport(phy, tcfg)
		got, tstats, terr := tr.Send(payload)
		opts.Release(m)

		row := syncTransportRow{
			Label:     label,
			Delivery:  float64(len(got)) / float64(len(payload)),
			Desyncs:   tstats.Desyncs,
			Reacq:     tstats.Reacquisitions,
			Recal:     tstats.Recalibrations,
			Degrade:   tstats.Degradations,
			Retrans:   tstats.Retransmissions,
			Blackouts: inj.Stats().DesyncPreemptions,
			Interval:  tr.Interval(),
		}
		row.ResidualBER = prefixBER(payload, got)
		if terr != nil {
			row.Note = terr.Error()
		}
		res.Transport = append(res.Transport, row)
		return nil
	}
	if err := opts.Checkpoint("sync: transport tracked"); err != nil {
		return nil, err
	}
	if err := transportLeg("tracked", true); err != nil {
		return nil, err
	}
	if err := opts.Checkpoint("sync: transport untracked"); err != nil {
		return nil, err
	}
	if err := transportLeg("untracked", false); err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	register(Experiment{
		ID:    "sync",
		Title: "Self-synchronizing receiver: acquisition, clock recovery, resync escalation",
		Run:   runSync,
	})
}
