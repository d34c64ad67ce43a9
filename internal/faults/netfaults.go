package faults

import (
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/sim"
)

// Network faults: where the rest of this package perturbs the simulated
// platform, NetPlan misbehaves at the *distribution* boundary — the coordinator/worker
// protocol of internal/sweepd. It issues deterministic per-call
// verdicts: lose the call (drop the request, drop the response, or a
// partition window during which a worker's every call fails), repeat
// it, delay it, or stall it in the shapes that melt control planes — a
// sawtooth latency ramp (load waves cresting and breaking) and an
// occasional slow-loris trickle (a call that holds its admission slot
// for an eternity). It also schedules mid-trial worker kills. The plan
// is pure decision logic: it never touches sockets; sweepd applies it
// as an http.RoundTripper under the workers' HTTP client in in-process
// fleets.
//
// Determinism: each worker draws its whole verdict from its own
// sim.Rand stream split from the plan seed by a stable hash of the
// worker ID. A worker's verdict sequence depends only on (seed, worker
// ID, call index) and the clock readings — not on scheduling — so a
// chaos run's fault pattern is reproducible even though goroutine
// interleaving is not.

// NetVerdict is the fate of one protocol call.
type NetVerdict struct {
	// DropRequest loses the call before delivery: the coordinator never
	// sees it and the caller gets a transport error.
	DropRequest bool
	// DropResponse delivers the call but loses the reply: the
	// coordinator acts on it, the caller gets a transport error and
	// will retry — the duplicate-delivery path idempotency must absorb.
	DropResponse bool
	// Duplicate delivers the call twice back to back.
	Duplicate bool
	// Delay holds the call before delivery, outside admission.
	Delay time.Duration
	// Stall holds the delivered call inside admission: it is served at
	// the request body's first read, which the coordinator performs
	// only once its gate has granted a slot.
	Stall time.Duration
}

// NetConfig describes one network-fault mix. The zero value injects
// nothing; DefaultNetConfig scales a representative mix by two
// intensity knobs.
type NetConfig struct {
	// DropRequestProb and DropResponseProb are per-call loss
	// probabilities; DuplicateProb re-delivers a call twice.
	DropRequestProb  float64
	DropResponseProb float64
	DuplicateProb    float64

	// DelayProb stalls a call for a uniform draw from (0, DelayMax].
	DelayProb float64
	DelayMax  time.Duration

	// PartitionProb is the per-call chance that a partition window
	// opens around the calling worker; for PartitionFor, every one of
	// its calls is dropped before delivery (heartbeats included, which
	// is what makes leases expire under partitions).
	PartitionProb float64
	PartitionFor  time.Duration

	// KillEveryUnits schedules mid-trial worker kills: a worker is
	// marked to die while running roughly every nth unit it starts
	// (per-worker deterministic draw in [n/2, 3n/2)). Zero disables
	// kills. sweepd's fleet honors the schedule as a process crash: the
	// worker's transport goes dead and its context is cancelled, so it
	// completes and releases nothing — exactly the crash shape lease
	// expiry exists to absorb.
	KillEveryUnits int

	// RampPeriod is the sawtooth period of the stall ramp: the stall
	// climbs from 0 to RampMax across each period, then snaps back — a
	// load wave. Zero disables the ramp.
	RampPeriod time.Duration
	RampMax    time.Duration

	// TrickleProb is the per-call chance of a slow-loris stall: the call
	// proceeds, but only after holding its admission slot for
	// TrickleFor — an order of magnitude past normal service time.
	TrickleProb float64
	TrickleFor  time.Duration
}

// DefaultNetConfig scales two representative fault families by their
// intensities in [0, 1]. At net 1 roughly a third of calls are lost,
// repeated or delayed and workers die every few units; at overload 1
// the stall ramp crests at 25ms every 800ms and ~3% of calls trickle
// for 150ms. At 0 a family injects nothing.
func DefaultNetConfig(net, overload float64) NetConfig {
	net, overload = min(max(net, 0), 1), min(max(overload, 0), 1)
	cfg := NetConfig{
		DropRequestProb:  0.08 * net,
		DropResponseProb: 0.08 * net,
		DuplicateProb:    0.10 * net,
		DelayProb:        0.15 * net,
		DelayMax:         20 * time.Millisecond,
		PartitionProb:    0.01 * net,
		PartitionFor:     150 * time.Millisecond,
	}
	if net > 0 {
		// 1/intensity keeps kills rare at low intensity without a
		// cliff at zero.
		cfg.KillEveryUnits = int(6.0/net + 0.5)
	}
	if overload > 0 {
		cfg.RampPeriod = 800 * time.Millisecond
		cfg.RampMax = time.Duration(25 * float64(time.Millisecond) * overload)
		cfg.TrickleProb = 0.03 * overload
		cfg.TrickleFor = 150 * time.Millisecond
	}
	return cfg
}

// NetStats counts injected network faults.
type NetStats struct {
	Calls, DroppedRequests, DroppedResponses, Duplicates, Delayed int
	Partitions, PartitionedCalls                                  int
	Ramped, Trickled                                              int
	// TotalStall is the summed Stall of every verdict issued.
	TotalStall time.Duration
}

// NetPlan issues deterministic verdicts for one sweep's protocol
// traffic. Safe for concurrent use by many workers.
type NetPlan struct {
	cfg  NetConfig
	seed uint64

	mu      sync.Mutex
	streams map[string]*sim.Rand
	// partitionedUntil holds each worker's open partition window.
	partitionedUntil map[string]time.Time
	// epoch anchors the ramp phase at the first observed call, so the
	// sawtooth is aligned to the run, not to wall-clock zero.
	epoch time.Time
	stats NetStats
}

// NewNetPlan builds a plan over cfg, deterministic in seed.
func NewNetPlan(cfg NetConfig, seed uint64) *NetPlan {
	return &NetPlan{
		cfg:              cfg,
		seed:             seed,
		streams:          map[string]*sim.Rand{},
		partitionedUntil: map[string]time.Time{},
	}
}

// stream returns worker's private rand, split from the plan seed by a
// stable hash of the ID (lock held).
func (p *NetPlan) stream(worker string) *sim.Rand {
	r, ok := p.streams[worker]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(worker))
		r = sim.NewRand(p.seed ^ h.Sum64())
		p.streams[worker] = r
	}
	return r
}

// Next issues the verdict for worker's next protocol call at now.
func (p *NetPlan) Next(worker string, now time.Time) NetVerdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Calls++
	rng := p.stream(worker)

	if until, ok := p.partitionedUntil[worker]; ok {
		if now.Before(until) {
			p.stats.PartitionedCalls++
			return NetVerdict{DropRequest: true}
		}
		delete(p.partitionedUntil, worker)
	}
	if p.cfg.PartitionProb > 0 && rng.Bool(p.cfg.PartitionProb) {
		p.partitionedUntil[worker] = now.Add(p.cfg.PartitionFor)
		p.stats.Partitions++
		p.stats.PartitionedCalls++
		return NetVerdict{DropRequest: true}
	}

	var v NetVerdict
	if p.cfg.DelayProb > 0 && p.cfg.DelayMax > 0 && rng.Bool(p.cfg.DelayProb) {
		v.Delay = time.Duration(1 + rng.IntN(int(p.cfg.DelayMax)))
		p.stats.Delayed++
	}
	switch {
	case p.cfg.DropRequestProb > 0 && rng.Bool(p.cfg.DropRequestProb):
		v.DropRequest = true
		p.stats.DroppedRequests++
	case p.cfg.DropResponseProb > 0 && rng.Bool(p.cfg.DropResponseProb):
		v.DropResponse = true
		p.stats.DroppedResponses++
	case p.cfg.DuplicateProb > 0 && rng.Bool(p.cfg.DuplicateProb):
		v.Duplicate = true
		p.stats.Duplicates++
	}
	if !v.DropRequest {
		v.Stall = p.stallLocked(rng, now)
	}
	return v
}

// stallLocked draws a delivered call's stall: the ramp's current height
// jittered per call, plus a trickle when the slow-loris draw fires.
func (p *NetPlan) stallLocked(rng *sim.Rand, now time.Time) time.Duration {
	var stall time.Duration
	if p.cfg.RampPeriod > 0 && p.cfg.RampMax > 0 {
		if p.epoch.IsZero() {
			p.epoch = now
		}
		phase := float64(now.Sub(p.epoch)%p.cfg.RampPeriod) / float64(p.cfg.RampPeriod)
		// Jitter the crest per call so two workers at the same phase
		// still stall differently.
		if d := time.Duration(phase * float64(p.cfg.RampMax) * (0.5 + 0.5*rng.Float64())); d > 0 {
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

// KillAfterUnits returns after how many started units worker should die
// mid-trial (0 = never). The draw is per-worker deterministic, uniform
// in [n/2, 3n/2) around the configured mean.
func (p *NetPlan) KillAfterUnits(worker string) int {
	n := p.cfg.KillEveryUnits
	if n <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// A dedicated split keeps the kill draw from perturbing the per-call
	// verdict stream.
	h := fnv.New64a()
	h.Write([]byte(worker))
	rng := sim.NewRand(p.seed ^ h.Sum64() ^ 0x6b111beef)
	lo := n / 2
	if lo < 1 {
		lo = 1
	}
	return lo + rng.IntN(n)
}

// Stats snapshots the injected-fault counters.
func (p *NetPlan) Stats() NetStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
