package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"

	"repro/internal/channel"
	"repro/internal/channel/link"
	"repro/internal/channel/ufvariation"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/system"
)

// covert-arq: one exfiltration session per round, the way
// examples/covertfile runs one. A seed-generated 12-byte payload goes
// through link.Transport over a tracked ufvariation.LinkPhy on a pooled
// cross-processor Table 1 machine with faults.DefaultConfig(0.3)
// attached. The session passes only if the payload arrives byte-exact.
//
// The throughput op is one simulated second of the session, not one
// delivered byte: how many bytes a simulated second carries depends on
// the seed's retransmissions and moved a run's bytes per CPU-second by
// half from seed to seed, while host cost per simulated second is
// nearly constant. Bytes per CPU-second is air_goodput_bps/8 times
// cpu_throughput; air_goodput_bps is deterministic per seed.

const (
	covertPayloadBytes = 12
	covertIntensity    = 0.3
)

func init() {
	register(workload{
		name:      "covert-arq",
		setupReps: 3,
		perSecond: 1.2,
		setup:     setupCovert,
		layers:    covertLayers,
	})
}

// covertOp is one session: the machine's seed and the payload.
type covertOp struct {
	machineSeed uint64
	payload     [covertPayloadBytes]byte
}

// covertOps generates n sessions from seed; op i does not depend on n.
func covertOps(seed uint64, n int) []covertOp {
	rng := rand.New(rand.NewPCG(seed, 0xC0BE47A2))
	ops := make([]covertOp, n)
	for i := range ops {
		ops[i].machineSeed = rng.Uint64()
		for j := range ops[i].payload {
			ops[i].payload[j] = byte(rng.Uint32())
		}
	}
	return ops
}

type covertEnv struct {
	pool     *system.Pool
	mcfg     system.Config
	ccfg     ufvariation.Config
	ops      []covertOp
	failures []string
}

func setupCovert(cfg config) (env, error) {
	e := &covertEnv{
		pool: &system.Pool{},
		mcfg: system.DefaultConfig(),
		ccfg: ufvariation.DefaultConfig().CrossProcessor(),
		ops:  covertOps(cfg.seed, cfg.rounds),
	}
	if r := e.session(covertOps(warmupSeed, 1)[0], nil, 0); r.failed > 0 {
		e.failures = append(e.failures, "warm-up session did not deliver its payload")
	}
	return e, nil
}

func (e *covertEnv) run(i int, tr *tracer) round { return e.session(e.ops[i], tr, uint64(i+1)) }

func (e *covertEnv) setupFailures() []string { return e.failures }

func (e *covertEnv) close() {}

// session runs one exfiltration and reports it as a round.
func (e *covertEnv) session(op covertOp, tr *tracer, trace uint64) round {
	r := round{attempted: 1}
	w := startWindow()

	mcfg := e.mcfg
	mcfg.Seed = op.machineSeed
	get := tr.open("system.pool_get", trace, 0)
	m := e.pool.Get(mcfg)
	tr.close(get)
	defer e.pool.Put(m)
	inj := faults.New(faults.DefaultConfig(covertIntensity), m.Rand(0xFA))
	if err := inj.Attach(m); err != nil {
		w.stop(&r)
		r.failed = 1
		fmt.Fprintf(os.Stderr, "perfbench: covert-arq: %v\n", err)
		return r
	}
	lp := &ufvariation.LinkPhy{M: m, Cfg: e.ccfg, Corrupt: inj.CorruptBits, AckLoss: inj.AckLost, Track: true}
	var phy link.Phy = lp
	var tp *tracedPhy
	if tr != nil {
		tp = &tracedPhy{inner: lp, tr: tr, trace: trace}
		phy = tp
	}
	tcfg := link.DefaultTransportConfig()
	tcfg.Interval = e.ccfg.Interval
	t := link.NewTransport(phy, tcfg)

	send := tr.open("link.send", trace, 0)
	if tp != nil {
		tp.parent = send
	}
	got, st, err := t.Send(op.payload[:])
	tr.close(send)
	w.stop(&r)

	switch {
	case err != nil:
		// The transport gave up and said so: a failed op, not a wrong
		// output.
		r.failed = 1
		fmt.Fprintf(os.Stderr, "perfbench: covert-arq session (machine seed %#x): %v\n", op.machineSeed, err)
	case !bytes.Equal(got, op.payload[:]):
		r.failed, r.incorrect = 1, 1
		fmt.Fprintf(os.Stderr, "perfbench: covert-arq session (machine seed %#x) delivered %x, sent %x\n", op.machineSeed, got, op.payload)
	default:
		r.units = m.Now().Seconds()
	}
	delivered := 0
	for _, f := range st.Frames {
		if f.Delivered {
			delivered++
		}
	}
	var epochs, held, inserts, evictions uint64
	for _, s := range m.Sockets() {
		epochs += s.Gov.Epochs()
		held += s.Gov.HeldEpochs()
		ins, ev := s.Hier.Stats()
		inserts += ins
		evictions += ev
	}
	steps := uint64(m.Engine().Steps())
	simNS := uint64(m.Now())
	r.sim = []uint64{steps, epochs, inserts, uint64(st.Transmissions), simNS,
		held, evictions, uint64(st.Retransmissions), uint64(lp.RawErrors), uint64(len(got))}
	r.counts = map[string]float64{
		"steps": float64(steps), "epochs": float64(epochs), "held": float64(held),
		"inserts": float64(inserts), "evictions": float64(evictions),
		"transmissions": float64(st.Transmissions), "retransmissions": float64(st.Retransmissions),
		"recalibrations": float64(st.Recalibrations), "frames_delivered": float64(delivered),
		"raw_errors": float64(lp.RawErrors), "raw_bits": float64(lp.RawBits),
		"sim_s": sim.Time(simNS).Seconds(), "delivered_bits": float64(8 * len(got)),
	}
	return r
}

// tracedPhy wraps the LinkPhy in spans, forwarding every optional
// interface the transport looks for (Idler, SyncPhy) so the transport
// takes the same paths it takes on the bare phy. Errors pass through
// unchanged.
type tracedPhy struct {
	inner  *ufvariation.LinkPhy
	tr     *tracer
	trace  uint64
	parent uint64
}

var (
	_ link.Phy     = (*tracedPhy)(nil)
	_ link.Idler   = (*tracedPhy)(nil)
	_ link.SyncPhy = (*tracedPhy)(nil)
)

func (p *tracedPhy) Transmit(bits channel.Bits, interval sim.Time, pilot bool) (channel.Bits, error) {
	id := p.tr.open("phy.transmit", p.trace, p.parent)
	defer p.tr.close(id)
	return p.inner.Transmit(bits, interval, pilot)
}

func (p *tracedPhy) Feedback(ack bool) bool {
	id := p.tr.open("phy.feedback", p.trace, p.parent)
	defer p.tr.close(id)
	return p.inner.Feedback(ack)
}

func (p *tracedPhy) Idle(d sim.Time) {
	id := p.tr.open("phy.idle", p.trace, p.parent)
	defer p.tr.close(id)
	p.inner.Idle(d)
}

func (p *tracedPhy) SyncState() (tracking, locked bool) { return p.inner.SyncState() }

func (p *tracedPhy) Reacquire() { p.inner.Reacquire() }

func covertLayers(lm layerMetrics, plain, traced []round, ix spanIndex) {
	n := float64(len(traced))
	c := sumRounds(traced).counts
	p := sumRounds(plain)
	lm["link.send_s"] = ix.total("link.send") / n
	lm["link.self_s"] = ix.self("link.send") / n
	lm["link.transmissions"] = c["transmissions"] / n
	lm["link.retransmissions"] = c["retransmissions"] / n
	lm["link.recalibrations"] = c["recalibrations"] / n
	lm["link.useful_ratio"] = c["frames_delivered"] / c["transmissions"]
	lm["air_goodput_bps"] = p.counts["delivered_bits"] / p.counts["sim_s"]
	lm["phy.transmit_s"] = ix.total("phy.transmit") / n
	lm["phy.feedback_s"] = ix.total("phy.feedback") / n
	lm["phy.idle_s"] = ix.total("phy.idle") / n
	lm["phy.raw_ber"] = c["raw_errors"] / c["raw_bits"]
	lm["system.sim_s"] = c["sim_s"] / n
	// Host cost per simulated time and per engine step come from the
	// untraced rounds, so span bookkeeping does not inflate them.
	lm["system.host_us_per_sim_ms"] = p.wall.Seconds() * 1e6 / (p.counts["sim_s"] * 1e3)
	lm["system.pool_get_ms"] = ix.total("system.pool_get") * 1e3 / n
	lm["sim.engine_steps"] = c["steps"] / n
	lm["sim.ns_per_step"] = float64(p.wall.Nanoseconds()) / p.counts["steps"]
	lm["ufs.epochs"] = c["epochs"] / n
	lm["ufs.held_epochs"] = c["held"] / n
	lm["cache.llc_inserts"] = c["inserts"] / n
	lm["cache.llc_evictions"] = c["evictions"] / n
}
