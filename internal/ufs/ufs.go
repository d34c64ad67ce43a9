// Package ufs implements the uncore frequency scaling governor: the
// hardware power-management algorithm whose externally observable behaviour
// the paper characterises in §3 and summarises in §3.5. The implementation
// follows that summary point by point:
//
//   - The uncore has operating points in 100 MHz increments. The governor
//     checks system status every ~10 ms and increases, decreases, or
//     maintains the frequency (§3.3, Figures 5 and 6).
//   - Higher uncore utilisation (LLC access density, distance-weighted
//     interconnect traffic) raises the target frequency (§3.1, Figure 3);
//     without interconnect traffic the utilisation target tops out one step
//     below the maximum.
//   - If more than 1/3 of the active cores are stalled on memory, the
//     target is the maximum allowed frequency (§3.2, Figure 4); between
//     1/4 and 1/3 the uncore settles at an intermediate point.
//   - Heavy demand (a maximum-frequency target) ramps one step per epoch;
//     light demand ramps several times slower (§4.3.1: >50 ms per step for
//     a 2.1 GHz workload). Decreases always step once per epoch.
//   - Sockets are coupled: each socket's frequency floor follows its peers
//     one step behind, so a busy socket drags idle sockets up with a
//     ~10 ms lag, stabilising 100 MHz lower (§3.4, Figure 7).
//   - With no demand the frequency dithers between 1.4 and 1.5 GHz (§3.1).
//   - UFS is disabled — the uncore pins to the maximum — while any core
//     runs above its base frequency, and disabled entirely when the MSR
//     range is a single point (§2.2.1).
package ufs

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/msr"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Step is one rung of a utilisation ladder: demand of at least Min units
// asks for at least Target.
type Step struct {
	Min    float64
	Target sim.Freq
}

// Params are the governor constants. Defaults reproduce the paper's
// platform; tests assert the Figure 3/4 grids against them.
type Params struct {
	// Epoch is the decision period (§3.3: ≈10 ms).
	Epoch sim.Time
	// TailWindow is the status-sampling window preceding each decision:
	// the governor evaluates stall and utilisation over the last
	// TailWindow of the epoch, so a workload change reacts at the next
	// boundary (Figure 5's "slightly longer than 10 ms" first step)
	// rather than being averaged away.
	TailWindow sim.Time
	// SlowEpochs is how many epochs one light-demand upward step takes.
	SlowEpochs int
	// StallRatioThreshold marks a core as stalled when its epoch
	// stall-cycle ratio exceeds it (§3.2: pointer chasing ≈0.77 is
	// stalled; the traffic loop ≈0.3 and an L2 chase ≈0.14 are not).
	StallRatioThreshold float64
	// MidFreq is the intermediate operating point observed when the
	// stalled fraction is between 1/4 and 1/3 (Figure 4's 1.8 GHz).
	MidFreq sim.Freq
	// IdleHigh is the upper idle dither point (1.5 GHz); with no demand
	// the frequency alternates between IdleHigh and IdleHigh−1.
	IdleHigh sim.Freq
	// UtilLadder maps LLC utilisation (in units of reference traffic
	// threads) to targets. It tops out at 2.3 GHz: LLC demand alone
	// never reaches the maximum (§3.1).
	UtilLadder []Step
	// PressureLadder maps distance-weighted interconnect pressure to
	// targets, reaching the maximum (Figure 3's 2.4 GHz cells).
	PressureLadder []Step
	// DistWeight is the per-transaction pressure weight by hop count;
	// entries beyond the last extrapolate linearly.
	DistWeight []float64
	// Timing provides the reference access rate used to normalise raw
	// LLC access counts into utilisation units.
	Timing timing.Params
}

// DefaultParams returns the constants fitted to Figures 3–7.
func DefaultParams() Params {
	return Params{
		Epoch:               10 * sim.Millisecond,
		TailWindow:          8 * sim.Millisecond,
		SlowEpochs:          5,
		StallRatioThreshold: 0.5,
		MidFreq:             18,
		IdleHigh:            sim.UncoreIdleHigh,
		UtilLadder: []Step{
			{Min: 0.7, Target: 21},
			{Min: 1.5, Target: 22},
			{Min: 2.5, Target: 23},
		},
		PressureLadder: []Step{
			{Min: 0.9, Target: 22},
			{Min: 2.0, Target: 23},
			{Min: 6.0, Target: 24},
		},
		DistWeight: []float64{0, 1, 4, 9},
		Timing:     timing.Default(),
	}
}

// DistanceWeight returns the pressure weight of one LLC transaction that
// travels h hops.
func (p *Params) DistanceWeight(h int) float64 {
	if h < 0 {
		panic(fmt.Sprintf("ufs: negative hop count %d", h))
	}
	n := len(p.DistWeight)
	if h < n {
		return p.DistWeight[h]
	}
	if n == 0 {
		return float64(h)
	}
	if n == 1 {
		return p.DistWeight[0]
	}
	slope := p.DistWeight[n-1] - p.DistWeight[n-2]
	return p.DistWeight[n-1] + slope*float64(h-n+1)
}

// PCState is a package (uncore) idle state (§2.2.2). Its index never
// exceeds the minimum C-state index among the socket's cores.
type PCState int

// ExitLatency returns the uncore wake-up time from the state.
func (p PCState) ExitLatency() sim.Time {
	switch {
	case p <= 0:
		return 0
	case p <= 1:
		return 5 * sim.Microsecond
	default:
		return 90 * sim.Microsecond
	}
}

func (p PCState) String() string { return fmt.Sprintf("PC%d", int(p)) }

// EpochStats is the per-socket activity summary the governor consumes
// every epoch.
type EpochStats struct {
	// ActiveCores ran a workload during the epoch; StalledCores is the
	// subset whose stall ratio exceeded the threshold.
	ActiveCores, StalledCores int
	// AnyCoreAboveBase disables UFS for the epoch (§2.2.1).
	AnyCoreAboveBase bool
	// CoreFreq is the operating frequency used to normalise rates
	// (the base frequency on the powersave platform).
	CoreFreq sim.Freq
	// Window is the observation window the counts below cover (the
	// governor's TailWindow).
	Window sim.Time
	// LLCAccesses is the raw count of LLC transactions in the window.
	LLCAccesses float64
	// Pressure is Σ accesses·DistanceWeight(hops) in the window.
	Pressure float64
	// MinCState is the shallowest C-state among the cores, driving the
	// package C-state when the socket is fully idle.
	MinCState cpu.CState
	// PeerFreqs are the current uncore frequencies of the other sockets
	// (for cross-socket coupling, §3.4).
	PeerFreqs []sim.Freq
}

// FaultFunc perturbs one governor decision (installed by
// internal/faults). It runs after the package C-state update with the
// epoch's stats, which it may mutate (sampling-window noise from phase
// drift); returning true holds the operating point for the epoch — the
// decision point drifted past the status-sampling boundary, or the PCU
// skipped a decision under load. Implementations must be deterministic.
type FaultFunc func(stats *EpochStats) (hold bool)

// Governor is one socket's UFS state machine.
type Governor struct {
	params Params
	file   *msr.File
	rng    *sim.Rand
	fault  FaultFunc

	cur        sim.Freq
	dither     bool
	slowCredit int
	pc         PCState
	epochs     uint64
	held       uint64

	// statScratch is where Tick copies its argument so the fault hook's
	// pointer never forces a per-epoch heap escape of the stats.
	statScratch EpochStats
}

// NewGovernor returns a governor at the idle operating point, constrained
// by the given MSR file.
func NewGovernor(params Params, file *msr.File, rng *sim.Rand) *Governor {
	g := &Governor{params: params, file: file, rng: rng}
	rl := file.Ratio()
	g.cur = params.IdleHigh.Clamp(rl.Min, rl.Max)
	return g
}

// Reset returns the governor to the state NewGovernor built, replacing
// its random stream with rng and removing any fault hook. The caller must
// reset the shared MSR file first: the initial operating point is clamped
// to the file's current ratio limit, exactly as in NewGovernor.
func (g *Governor) Reset(rng *sim.Rand) {
	g.rng = rng
	g.fault = nil
	rl := g.file.Ratio()
	g.cur = g.params.IdleHigh.Clamp(rl.Min, rl.Max)
	g.dither = false
	g.slowCredit = 0
	g.pc = 0
	g.epochs = 0
	g.held = 0
	g.statScratch = EpochStats{}
}

// Params returns the governor constants.
func (g *Governor) Params() Params { return g.params }

// Current returns the operating uncore frequency, as the UCLK MSR would
// report it over a sampling window.
func (g *Governor) Current() sim.Freq { return g.cur }

// Dithering reports whether the governor is wobbling inside the idle band.
func (g *Governor) Dithering() bool { return g.dither }

// SampleFreq returns the instantaneous uncore frequency seen by one access.
// In the idle band the hardware wobbles between the two idle points much
// faster than a governor epoch, so individual accesses sample either level
// at random; outside the band it is simply the operating point.
func (g *Governor) SampleFreq(rng *sim.Rand) sim.Freq {
	if !g.dither {
		return g.cur
	}
	f := g.params.IdleHigh
	if rng.Bool(0.5) {
		f -= sim.FreqStep
	}
	rl := g.file.Ratio()
	return f.Clamp(rl.Min, rl.Max)
}

// PC returns the current package C-state.
func (g *Governor) PC() PCState { return g.pc }

// Epochs returns how many decision epochs have elapsed.
func (g *Governor) Epochs() uint64 { return g.epochs }

// SetFault installs (or, with nil, removes) the per-epoch fault hook.
func (g *Governor) SetFault(f FaultFunc) { g.fault = f }

// HeldEpochs returns how many decisions the fault hook has held.
func (g *Governor) HeldEpochs() uint64 { return g.held }

// ladder returns the highest rung target whose threshold value v meets,
// or 0 if below all rungs.
func ladder(steps []Step, v float64) sim.Freq {
	var t sim.Freq
	for _, s := range steps {
		if v >= s.Min {
			t = s.Target
		}
	}
	return t
}

// Tick runs one governor epoch: it accounts the elapsed epoch's uncore
// clock ticks into the MSR counter, derives the new target from stats, and
// moves the operating point one step (or holds). It returns the new
// frequency.
func (g *Governor) Tick(epochStats EpochStats) sim.Freq {
	g.statScratch = epochStats
	stats := &g.statScratch
	// The UCLK fixed counter ran at the old frequency for the epoch
	// that just ended.
	g.file.TickUclk(g.cur, g.params.Epoch)
	g.epochs++

	rl := g.file.Ratio()
	lo, hi := rl.Min, rl.Max

	// Package C-state: PC0 whenever any core is awake (§2.2.2).
	if stats.ActiveCores == 0 {
		g.pc = PCState(stats.MinCState)
	} else {
		g.pc = 0
	}

	// Injected decision faults: a held epoch keeps the operating point
	// (the C-state bookkeeping above is hardware, not a decision, and
	// still happened).
	if g.fault != nil && g.fault(stats) {
		g.held++
		return g.cur
	}

	// UFS disabled: pinned.
	if rl.Fixed() {
		g.cur = lo
		g.slowCredit = 0
		return g.cur
	}
	if stats.AnyCoreAboveBase {
		g.cur = hi
		g.slowCredit = 0
		return g.cur
	}

	// Demand-derived target.
	window := stats.Window
	if window <= 0 {
		window = g.params.Epoch
	}
	ref := g.params.Timing.ReferenceRate(stats.CoreFreq, g.cur) * window.Seconds()
	util := stats.LLCAccesses / ref
	press := stats.Pressure / ref

	target := ladder(g.params.UtilLadder, util)
	if t := ladder(g.params.PressureLadder, press); t > target {
		target = t
	}
	if stats.ActiveCores > 0 {
		switch {
		case 3*stats.StalledCores > stats.ActiveCores:
			if hi > target {
				target = hi
			}
		case 4*stats.StalledCores > stats.ActiveCores:
			if g.params.MidFreq > target {
				target = g.params.MidFreq
			}
		}
	}
	idle := target == 0
	if idle {
		target = g.params.IdleHigh
	}

	// Cross-socket coupling: follow the busiest peer one step behind.
	coupled := false
	for _, pf := range stats.PeerFreqs {
		if floor := pf - sim.FreqStep; floor > target {
			target = floor
			idle = false
			coupled = true
		}
	}

	target = target.Clamp(lo, hi)

	// Idle dither between IdleHigh and IdleHigh−1 (§3.1: with no uncore
	// demand the frequency "alternates between 1.4 GHz and 1.5 GHz").
	// Once in the band the operating point wobbles faster than the
	// epoch; the MSR-visible value alternates per epoch while
	// SampleFreq blends per access.
	if idle && g.cur <= target && g.cur >= target-sim.FreqStep {
		g.slowCredit = 0
		d := target
		if g.rng.Bool(0.5) {
			d -= sim.FreqStep
		}
		g.cur = d.Clamp(lo, hi)
		g.dither = true
		return g.cur
	}
	// Leaving the idle band: the climb starts from the band's top —
	// the dithered low point is modulation below the nominal idle
	// operating point, not a rung of the ladder.
	if g.dither && g.cur < g.params.IdleHigh {
		g.cur = g.params.IdleHigh.Clamp(lo, hi)
	}
	g.dither = false

	switch {
	case g.cur < target:
		fast := target == hi || coupled
		if fast {
			g.cur += sim.FreqStep
			g.slowCredit = 0
		} else {
			g.slowCredit++
			if g.slowCredit >= g.params.SlowEpochs {
				g.cur += sim.FreqStep
				g.slowCredit = 0
			}
		}
	case g.cur > target:
		g.cur -= sim.FreqStep
		g.slowCredit = 0
	default:
		g.slowCredit = 0
	}
	return g.cur
}
