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
// verdicts (drop the request, drop the response, duplicate, delay),
// opens partition windows during which a worker's every call fails, and
// schedules mid-trial worker kills. The plan is pure decision logic: it
// never touches sockets; sweepd applies it as an http.RoundTripper
// under the workers' HTTP client in in-process fleets.
//
// Determinism: each worker gets its own sim.Rand stream split from the
// plan seed by a stable hash of the worker ID. A worker's verdict
// sequence depends only on (seed, worker ID, call index) — not on
// scheduling — so a chaos run's fault pattern is reproducible even
// though goroutine interleaving is not.

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
	// Delay stalls the call before delivery.
	Delay time.Duration
}

// Failed reports whether the caller observes this verdict as an error.
func (v NetVerdict) Failed() bool { return v.DropRequest || v.DropResponse }

// NetConfig describes one network-fault mix. The zero value injects
// nothing; DefaultNetConfig scales a representative mix by one
// intensity knob.
type NetConfig struct {
	// Intensity records the master knob the config was scaled from
	// (diagnostics only; the individual fields are what act).
	Intensity float64

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
	// kills. The transport cannot kill a process; the sweepd worker
	// honors the schedule by dying without completing or releasing —
	// exactly the crash shape lease expiry exists to absorb.
	KillEveryUnits int
}

// DefaultNetConfig scales a representative fault mix by intensity in
// [0, 1]: at 0 nothing is injected; at 1 roughly a third of calls
// misbehave and workers die every few units.
func DefaultNetConfig(intensity float64) NetConfig {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	cfg := NetConfig{
		Intensity:        intensity,
		DropRequestProb:  0.08 * intensity,
		DropResponseProb: 0.08 * intensity,
		DuplicateProb:    0.10 * intensity,
		DelayProb:        0.15 * intensity,
		DelayMax:         20 * time.Millisecond,
		PartitionProb:    0.01 * intensity,
		PartitionFor:     150 * time.Millisecond,
	}
	if intensity > 0 {
		// 1/intensity keeps kills rare at low intensity without a
		// cliff at zero.
		cfg.KillEveryUnits = int(6.0/intensity + 0.5)
	}
	return cfg
}

// NetStats counts injected network faults.
type NetStats struct {
	Calls, DroppedRequests, DroppedResponses, Duplicates, Delayed int
	Partitions, PartitionedCalls                                  int
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
	stats            NetStats
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

// Config returns the plan's fault mix.
func (p *NetPlan) Config() NetConfig { return p.cfg }

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
	return v
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
