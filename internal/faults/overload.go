package faults

import (
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/sim"
)

// Overload injection: where NetPlan loses and reorders protocol calls,
// OverloadPlan makes them *slow* in the shapes that melt control planes
// — a sawtooth latency ramp (load waves cresting and breaking), an
// occasional slow-loris trickle (a call that holds its slot for an
// eternity while barely making progress), and herd synchronization
// (every worker released at the same instant, see
// sweepd.FleetConfig.HerdStart). Like NetPlan it is pure decision
// logic: it returns per-call stall durations and never touches sockets;
// sweepd applies it as an http.RoundTripper under the workers' HTTP
// client in in-process fleets, stalling each request body's first read.
//
// Determinism: each worker draws from its own sim.Rand stream split
// from the plan seed by a stable hash of the worker ID, so a chaos
// run's stall pattern depends only on (seed, worker ID, call index) and
// the clock readings — not on goroutine scheduling.

// OverloadConfig describes one overload mix. The zero value injects
// nothing; DefaultOverloadConfig scales a representative mix by one
// intensity knob.
type OverloadConfig struct {
	// Intensity records the master knob the config was scaled from
	// (diagnostics only; the individual fields are what act).
	Intensity float64

	// RampPeriod is the sawtooth period: injected latency climbs from 0
	// to DelayMax across each period, then snaps back — a load wave.
	// Zero disables the ramp.
	RampPeriod time.Duration
	// DelayMax is the latency at the crest of the ramp.
	DelayMax time.Duration

	// TrickleProb is the per-call chance of a slow-loris stall: the call
	// proceeds, but only after holding its admission slot for
	// TrickleFor — an order of magnitude past normal service time.
	TrickleProb float64
	TrickleFor  time.Duration
}

// DefaultOverloadConfig scales a representative overload mix by
// intensity in [0, 1]: at 0 nothing is injected; at 1 the ramp crests
// at 25ms every 800ms and ~3% of calls trickle for 150ms.
func DefaultOverloadConfig(intensity float64) OverloadConfig {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	cfg := OverloadConfig{Intensity: intensity}
	if intensity > 0 {
		cfg.RampPeriod = 800 * time.Millisecond
		cfg.DelayMax = time.Duration(25 * float64(time.Millisecond) * intensity)
		cfg.TrickleProb = 0.03 * intensity
		cfg.TrickleFor = 150 * time.Millisecond
	}
	return cfg
}

// OverloadStats counts injected stalls.
type OverloadStats struct {
	Calls, Ramped, Trickled int
	// TotalStall is the summed injected latency.
	TotalStall time.Duration
}

// OverloadPlan issues deterministic per-call stall durations. Safe for
// concurrent use by many workers.
type OverloadPlan struct {
	cfg  OverloadConfig
	seed uint64

	mu      sync.Mutex
	streams map[string]*sim.Rand
	// epoch anchors the ramp phase at the first observed call, so the
	// sawtooth is aligned to the run, not to wall-clock zero.
	epoch time.Time
	stats OverloadStats
}

// NewOverloadPlan builds a plan over cfg, deterministic in seed.
func NewOverloadPlan(cfg OverloadConfig, seed uint64) *OverloadPlan {
	return &OverloadPlan{cfg: cfg, seed: seed, streams: map[string]*sim.Rand{}}
}

// Config returns the plan's overload mix.
func (p *OverloadPlan) Config() OverloadConfig { return p.cfg }

// stream returns worker's private rand (lock held).
func (p *OverloadPlan) stream(worker string) *sim.Rand {
	r, ok := p.streams[worker]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(worker))
		r = sim.NewRand(p.seed ^ h.Sum64() ^ 0x0ad5107)
		p.streams[worker] = r
	}
	return r
}

// Next returns how long worker's next protocol call must stall at now:
// the ramp's current height jittered per worker, plus a trickle when
// the slow-loris draw fires. Zero means the call proceeds unshaped.
func (p *OverloadPlan) Next(worker string, now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Calls++
	rng := p.stream(worker)

	var stall time.Duration
	if p.cfg.RampPeriod > 0 && p.cfg.DelayMax > 0 {
		if p.epoch.IsZero() {
			p.epoch = now
		}
		phase := float64(now.Sub(p.epoch)%p.cfg.RampPeriod) / float64(p.cfg.RampPeriod)
		// Jitter the crest per call so two workers at the same phase
		// still stall differently.
		d := time.Duration(phase * float64(p.cfg.DelayMax) * (0.5 + 0.5*rng.Float64()))
		if d > 0 {
			stall += d
			p.stats.Ramped++
		}
	}
	if p.cfg.TrickleProb > 0 && p.cfg.TrickleFor > 0 && rng.Bool(p.cfg.TrickleProb) {
		stall += p.cfg.TrickleFor
		p.stats.Trickled++
	}
	p.stats.TotalStall += stall
	return stall
}

// Stats snapshots the injected-stall counters.
func (p *OverloadPlan) Stats() OverloadStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
