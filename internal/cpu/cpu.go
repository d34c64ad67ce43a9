// Package cpu models the per-core state the reproduction needs: P-states
// (core frequency), C-states (idle depth, which drives the uncore package
// C-state used by the Uncore-idle baseline channel), and the performance
// counters the paper reads with perf (§3.2:
// cycle_activity.stalls_mem_any and cycles).
package cpu

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// CState is a core idle state (§2.2.2). C0 is fully active; deeper states
// power down more of the core and take longer to exit.
type CState int

const (
	// C0 is the active state.
	C0 CState = 0
	// C1 is a shallow halt.
	C1 CState = 1
	// C6 is a deep sleep with caches flushed.
	C6 CState = 6
)

// ExitLatency returns the time to return to C0 from c.
func (c CState) ExitLatency() sim.Time {
	switch {
	case c <= C0:
		return 0
	case c <= C1:
		return 2 * sim.Microsecond
	default:
		return 50 * sim.Microsecond
	}
}

func (c CState) String() string { return fmt.Sprintf("C%d", int(c)) }

// Counters are the per-core performance counters of §3.2.
type Counters struct {
	// Cycles is total core cycles executed while active.
	Cycles float64
	// StallCycles is cycle_activity.stalls_mem_any: cycles stalled on
	// an outstanding memory operation.
	StallCycles float64
	// LLCAccesses counts loads served past the L2.
	LLCAccesses float64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Cycles += o.Cycles
	c.StallCycles += o.StallCycles
	c.LLCAccesses += o.LLCAccesses
}

// StallRatio returns StallCycles/Cycles, the §3.2 metric (≈0.77 for the
// stalling loop, ≈0.3 for the traffic loop, ≈0.14 for an L2-resident
// chase). It returns 0 for an idle counter set.
func (c Counters) StallRatio() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.StallCycles / c.Cycles
}

// Core is one physical core.
type Core struct {
	// ID is the socket-local core number.
	ID int
	// Tile is the core's mesh coordinate.
	Tile topo.Coord
	// Freq is the current P-state operating point. The powersave
	// governor of the evaluation platform keeps cores at or below
	// Base, which is the condition for UFS to stay enabled (§2.2.1).
	Freq sim.Freq
	// Base is the base (non-turbo) frequency.
	Base sim.Freq
	// CState is the current idle state; C0 whenever a workload ran in
	// the last quantum.
	CState CState

	// Total accumulates counters over the core's lifetime. Epoch is
	// reset at every UFS epoch boundary. Tail covers only the trailing
	// status-sampling window of the epoch: the governor judges
	// stalledness from it, modelling a PMU that inspects recent system
	// state just before each decision (§3.3).
	Total, Epoch, Tail Counters

	// idleFor tracks how long the core has been without work, driving
	// C-state demotion.
	idleFor sim.Time
}

// The demotion ladder: a core idle for at least haltAfter sits in C1, for
// at least sleepAfter in C6.
const (
	haltAfter  = 200 * sim.Microsecond
	sleepAfter = 2 * sim.Millisecond
)

// NewCore returns an idle core at the base frequency. It starts asleep,
// as if idle for sleepAfter already, so its first idle quanta leave it in
// C6 rather than waking it to a shallower state.
func NewCore(id int, tile topo.Coord, base sim.Freq) *Core {
	return &Core{ID: id, Tile: tile, Freq: base, Base: base, CState: C6, idleFor: sleepAfter}
}

// Reset returns the core to the idle state NewCore built: counters
// zeroed, asleep in C6 as a cold core is. The caller restores Freq
// (the machine pins it to its configured operating point, which NewCore
// does not know).
func (c *Core) Reset() {
	c.Freq = c.Base
	c.CState = C6
	c.Total, c.Epoch, c.Tail = Counters{}, Counters{}, Counters{}
	c.idleFor = sleepAfter
}

// AboveBase reports whether the core is running above its base frequency,
// which disables UFS for the whole socket (§2.2.1).
func (c *Core) AboveBase() bool { return c.Freq > c.Base }

// RecordActive accumulates one quantum of activity counters and returns
// the core to C0. inTail marks quanta inside the governor's
// status-sampling window.
func (c *Core) RecordActive(quantum sim.Time, counters Counters, inTail bool) {
	c.Total.Add(counters)
	c.Epoch.Add(counters)
	if inTail {
		c.Tail.Add(counters)
	}
	c.CState = C0
	c.idleFor = 0
}

// RecordIdleSpan advances the core's idle bookkeeping by d: after a short
// halt period the OS demotes the core into deeper C-states (§2.2.2: "the
// OS chooses a C-state based on the intensity of the workloads"). The
// ladder is a pure function of the accumulated idle time, so one call
// with d is bit-identical to a call per quantum over the same total; the
// machine catches a core up over any idle stretch in O(1).
func (c *Core) RecordIdleSpan(d sim.Time) {
	c.idleFor += d
	switch {
	case c.idleFor >= sleepAfter:
		c.CState = C6
	case c.idleFor >= haltAfter:
		c.CState = C1
	default:
		c.CState = C0
	}
}

// ResetEpoch clears the per-epoch and tail counters; the socket calls
// this after the governor consumed them.
func (c *Core) ResetEpoch() {
	c.Epoch = Counters{}
	c.Tail = Counters{}
}
