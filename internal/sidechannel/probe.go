// Package sidechannel implements the §5 attacks: an unprivileged attacker
// profiles co-located victims by tracing the uncore frequency over time.
//
// The attacker runs two helper threads (§5's methodology): a stalling
// thread, which keeps the uncore at freq_max while the victim is idle
// (more than a third of the active cores are stalled), and a non-stalling
// probe thread that estimates the uncore frequency every few milliseconds
// from LLC load latencies (§4.2). When the victim's cores become active —
// but not stalled — the stalled fraction is diluted, the uncore frequency
// drops, and the victim's activity envelope appears in the attacker's
// trace. Two attacks are built on this: file-size profiling (Figure 11)
// and website fingerprinting (Figure 12).
package sidechannel

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Attacker is the §5 helper-thread pair plus the frequency trace it
// collects.
type Attacker struct {
	// Trace holds the estimated uncore frequency in GHz, one sample per
	// Period.
	Trace *trace.Series
	// Period is the sampling period (§5 uses 3 ms).
	Period sim.Time

	stall, probe *system.Thread
}

// probeWorkload estimates the uncore frequency once per period by timing a
// handful of LLC loads and inverting the latency model.
type probeWorkload struct {
	lines  []cache.Line
	period sim.Time
	hops   int
	out    *trace.Series

	sum   float64
	n     int
	pos   int
	next  sim.Time
	first bool
}

func (w *probeWorkload) Step(ctx *system.Ctx) system.Activity {
	if !w.first {
		w.first = true
		w.next = ctx.Start() + w.period
	}
	// Sample a small batch each quantum; emit one estimate per period.
	// The walk must keep rotating through the eviction list so every
	// probe misses the private caches and reflects LLC (uncore) timing.
	for i := 0; i < 4 && ctx.Remaining() > 0; i++ {
		w.sum += ctx.TimedAccess(w.lines[w.pos])
		w.pos = (w.pos + 1) % len(w.lines)
		w.n++
	}
	if ctx.Start() >= w.next {
		if w.n > 0 {
			tp := ctx.Timing()
			f := tp.UncoreFromLatency(w.sum/float64(w.n), ctx.CoreFreq(), w.hops, 10, 30)
			w.out.Add(ctx.Start(), f.GHz())
		}
		w.sum, w.n = 0, 0
		w.next += w.period
	}
	rest := ctx.CoreFreq().CyclesIn(ctx.Remaining())
	return system.Activity{Active: true, Cycles: rest}
}

// Deploy spawns the attacker's helper threads on the given cores of a
// socket and starts tracing at the period.
func Deploy(m *system.Machine, socket, stallCore, probeCore int, period sim.Time) (*Attacker, error) {
	if period <= 0 {
		period = 3 * sim.Millisecond
	}
	s := m.Socket(socket)
	slice, ok := s.Die.SliceAtHops(stallCore, 0)
	if !ok {
		return nil, fmt.Errorf("sidechannel: stall core %d has no local slice", stallCore)
	}
	probeSlice, ok := s.Die.SliceAtHops(probeCore, 1)
	if !ok {
		probeSlice, _ = s.Die.SliceAtHops(probeCore, 0)
	}
	lines, err := memsys.EvictionList(s.Hier, 0, memsys.NewAllocator(), 400, probeSlice, 20)
	if err != nil {
		return nil, err
	}
	a := &Attacker{
		Trace:  &trace.Series{Name: "uncore_ghz"},
		Period: period,
	}
	pw := &probeWorkload{
		lines:  lines,
		period: period,
		hops:   s.Mesh.Hops(s.Die.CoreCoord(probeCore), s.Die.SliceCoord(probeSlice)),
		out:    a.Trace,
	}
	a.stall = m.Spawn("attacker-stall", socket, stallCore, 0, &workload.Stalling{Slice: slice})
	a.probe = m.Spawn("attacker-probe", socket, probeCore, 0, pw)
	return a, nil
}

// Stop removes the attacker's threads.
func (a *Attacker) Stop() {
	a.stall.Stop()
	a.probe.Stop()
}
