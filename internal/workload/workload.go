// Package workload implements the programs the paper runs on cores: the
// traffic loop of Listing 1, the stalling (pointer-chase) loop of
// Listing 2, the receiver's measurement loop of Listing 3, nop and
// L2-resident loops, the stress-ng-style background stressor of §4.3.3,
// and the side-channel victims of §5 (a file-compression job and a
// website-browsing session).
//
// The dense loops are modelled at aggregate level — their access density,
// distance, and stall behaviour are what the UFS governor and the mesh
// observe — while the measurement loop issues individual timed loads
// through the functional cache hierarchy.
package workload

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/system"
)

// Stall-behaviour constants, fitted to the perf-counter ratios of §3.2.
const (
	// TrafficStallRatio is the stall-cycle fraction of the traffic loop
	// (§3.2: "this ratio is only about 0.3 for the traffic threads").
	TrafficStallRatio = 0.30
	// ChaseIssueCycles is the non-stalled work per pointer-chase
	// iteration; with an ≈70-cycle LLC load the stall ratio lands at
	// the paper's ≈0.77.
	ChaseIssueCycles = 16.0
	// L2ChaseStallRatio is the stall fraction of an L2-resident chase
	// (§3.2: 0.14) — far below the governor's stalled-core threshold.
	L2ChaseStallRatio = 0.14
)

// fullQuantumCycles returns the core cycles in a whole quantum.
func fullQuantumCycles(ctx *system.Ctx) float64 {
	return ctx.CoreFreq().CyclesIn(ctx.Quantum())
}

// Traffic is the Listing 1 loop: m×n eviction-list accesses rotating
// through L2 sets so that every access misses the L2 and hits a single
// target LLC slice. Its independent accesses overlap (high MLP), so the
// core is mostly not stalled while the LLC and mesh see dense traffic.
type Traffic struct {
	// Slice is the target LLC slice.
	Slice int
}

// Step implements system.Workload.
func (w *Traffic) Step(ctx *system.Ctx) system.Activity {
	hops := ctx.HopsTo(w.Slice)
	per := ctx.Timing().TrafficAccessTime(ctx.CoreFreq(), ctx.UncoreFreq(), hops)
	n := float64(ctx.Quantum()) / float64(per)
	ctx.InjectTraffic(w.Slice, n)
	cycles := fullQuantumCycles(ctx)
	return system.Activity{
		Active:      true,
		Cycles:      cycles,
		StallCycles: TrafficStallRatio * cycles,
		PowerUnits:  0.8,
	}
}

// Stationary implements system.Stationary: Step reads only the two
// frequencies, the quantum and the fixed placement.
func (*Traffic) Stationary() {}

// Stalling is the Listing 2 loop: a pointer chase through one eviction
// list on the target slice. Every load depends on the previous one, so the
// core spends ≈77 % of its cycles stalled — the input to the governor's
// stall rule (§3.2).
type Stalling struct {
	// Slice is the LLC slice holding the chase list.
	Slice int
}

// Step implements system.Workload.
func (w *Stalling) Step(ctx *system.Ctx) system.Activity {
	hops := ctx.HopsTo(w.Slice)
	tm := ctx.Timing()
	per := tm.ChaseAccessTime(ctx.CoreFreq(), ctx.UncoreFreq(), hops)
	n := float64(ctx.Quantum()) / float64(per)
	ctx.InjectTraffic(w.Slice, n)
	cycles := fullQuantumCycles(ctx)
	latency := tm.LLCMeanCycles(ctx.CoreFreq(), ctx.UncoreFreq(), hops, 0)
	stallFrac := (latency - ChaseIssueCycles) / latency
	if stallFrac < 0 {
		stallFrac = 0
	}
	return system.Activity{
		Active:      true,
		Cycles:      cycles,
		StallCycles: stallFrac * cycles,
		PowerUnits:  0.4,
	}
}

// Stationary implements system.Stationary.
func (*Stalling) Stationary() {}

// Nop is a busy compute loop with no memory traffic beyond the L1: an
// active, unstalled core. It is the "active but not stalled" load of
// Figure 4 and the idle half of the Figure 5/6 phase switches.
type Nop struct{}

// Step implements system.Workload.
func (Nop) Step(ctx *system.Ctx) system.Activity {
	cycles := fullQuantumCycles(ctx)
	return system.Activity{Active: true, Cycles: cycles, PowerUnits: 1.0}
}

// Stationary implements system.Stationary.
func (Nop) Stationary() {}

// L2Chase is a pointer chase whose list fits in the L2: no uncore
// activity, and a stall ratio (≈0.14) far below the stalled-core threshold
// (§3.2: "if the pointer chasing happens within L2 ... uncore will not
// boost its frequency").
type L2Chase struct{}

// Step implements system.Workload.
func (L2Chase) Step(ctx *system.Ctx) system.Activity {
	cycles := fullQuantumCycles(ctx)
	return system.Activity{
		Active:      true,
		Cycles:      cycles,
		StallCycles: L2ChaseStallRatio * cycles,
		PowerUnits:  0.9,
	}
}

// Stationary implements system.Stationary.
func (L2Chase) Stationary() {}

// Measure is the Listing 3 receiver loop: it walks an eviction list with
// fenced, timed loads and hands each sample to Sink. The fences keep the
// access density low enough that the measurement itself leaves the uncore
// idle (§4.2). PerQuantum bounds how many loads run each quantum.
type Measure struct {
	// Lines is the eviction list (same L2 set, one home slice).
	Lines []cache.Line
	// PerQuantum is the number of timed loads per quantum; zero means
	// one pass over Lines.
	PerQuantum int
	// Sink receives (time, latency-in-cycles) samples; nil discards.
	Sink func(at sim.Time, cycles float64)
	// Enabled gates measurement (the covert-channel receiver measures
	// only inside its T1/T2 windows); nil means always on.
	Enabled func(at sim.Time) bool

	pos int
}

// Step implements system.Workload.
func (w *Measure) Step(ctx *system.Ctx) system.Activity {
	if len(w.Lines) == 0 {
		panic("workload: Measure needs a non-empty eviction list")
	}
	n := w.PerQuantum
	if n <= 0 {
		n = len(w.Lines)
	}
	if w.Enabled != nil && !w.Enabled(ctx.Start()) {
		// Between windows the receiver spins without touching memory.
		cycles := fullQuantumCycles(ctx)
		return system.Activity{Active: true, Cycles: cycles}
	}
	for i := 0; i < n && ctx.Remaining() > 0; i++ {
		lat := ctx.TimedAccess(w.Lines[w.pos])
		if w.Sink != nil && !math.IsNaN(lat) {
			// NaN marks a sample stolen by an injected measurement
			// fault; the loop spent the time but records nothing.
			w.Sink(ctx.Now(), lat)
		}
		w.pos = (w.pos + 1) % len(w.Lines)
	}
	// The rest of the quantum is loop overhead: active, unstalled.
	rest := ctx.CoreFreq().CyclesIn(ctx.Remaining())
	return system.Activity{Active: true, Cycles: rest}
}

// Phase is one stage of a Phased workload.
type Phase struct {
	// Until is the absolute virtual time at which the phase ends.
	Until sim.Time
	// W runs during the phase; nil idles the core.
	W system.Workload
}

// Phased sequences workloads by absolute time: Figure 5's nop→stalling
// switch, Figure 6's stalling→nop switch, and the side-channel victims'
// activity envelopes are all Phased programs. After the last phase the
// core idles.
type Phased struct {
	Phases []Phase
}

// Step implements system.Workload.
func (w *Phased) Step(ctx *system.Ctx) system.Activity {
	at := ctx.Start()
	for _, p := range w.Phases {
		if at < p.Until {
			if p.W == nil {
				return system.Activity{}
			}
			return p.W.Step(ctx)
		}
	}
	return system.Activity{}
}

// CacheStressor is one stress-ng --cache worker (§4.3.3, Table 2): it
// alternates bursts of cache thrashing — whose working set misses the L2
// and stalls the core, pinning the uncore at the maximum through the
// stall rule — with lighter cache-resident phases. Workers are staggered,
// so the total fraction of time some worker is bursting (the phases that
// corrupt UF-variation "0" intervals) grows with N.
type CacheStressor struct {
	// Slice is the burst working set's home slice.
	Slice int
	// Period is the on/off cycle length; Duty the bursting fraction.
	Period sim.Time
	Duty   float64
	// PhaseOffset staggers workers.
	PhaseOffset sim.Time

	burst Stalling
}

// NewCacheStressor returns worker i of a stress-ng --cache N run whose
// burst working set lives on the given slice.
func NewCacheStressor(i, slice int) *CacheStressor {
	return &CacheStressor{
		Slice:       slice,
		Period:      240 * sim.Millisecond,
		Duty:        0.44,
		PhaseOffset: sim.Time(i) * 15 * sim.Millisecond,
		burst:       Stalling{Slice: slice},
	}
}

// Step implements system.Workload.
func (w *CacheStressor) Step(ctx *system.Ctx) system.Activity {
	if w.Period <= 0 {
		panic(fmt.Sprintf("workload: stressor period %v must be positive", w.Period))
	}
	pos := (ctx.Start() + w.PhaseOffset) % w.Period
	if float64(pos) < w.Duty*float64(w.Period) {
		w.burst.Slice = w.Slice
		return w.burst.Step(ctx)
	}
	// Off-phase: the worker mostly sleeps between thrash rounds, waking
	// briefly every few quanta for bookkeeping — enough to keep its
	// core out of deep sleep (so a stressed platform never reaches the
	// deep package idle the Uncore-idle channel needs) but far too
	// little activity to count against the stall-proportion rule.
	if (pos/ctx.Quantum())%8 == 0 {
		cycles := fullQuantumCycles(ctx)
		return system.Activity{Active: true, Cycles: cycles, PowerUnits: 0.2}
	}
	return system.Activity{}
}
