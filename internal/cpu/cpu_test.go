package cpu

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestCountersAndStallRatio(t *testing.T) {
	var c Counters
	if c.StallRatio() != 0 {
		t.Error("empty counters have a stall ratio")
	}
	c.Add(Counters{Cycles: 100, StallCycles: 77, LLCAccesses: 10})
	c.Add(Counters{Cycles: 100, StallCycles: 77})
	if got := c.StallRatio(); got != 0.77 {
		t.Errorf("stall ratio = %v, want 0.77 (§3.2)", got)
	}
	if c.LLCAccesses != 10 {
		t.Error("LLC accesses not accumulated")
	}
}

func TestCoreRecordingAndEpochReset(t *testing.T) {
	core := NewCore(0, topo.Coord{Col: 0, Row: 1}, 26)
	q := 200 * sim.Microsecond
	core.RecordActive(q, Counters{Cycles: 10, StallCycles: 5}, true)
	core.RecordActive(q, Counters{Cycles: 10, StallCycles: 5}, false)
	if core.Epoch.Cycles != 20 {
		t.Errorf("epoch cycles = %v", core.Epoch.Cycles)
	}
	if core.Tail.Cycles != 10 {
		t.Errorf("tail cycles = %v, want only the in-tail quantum", core.Tail.Cycles)
	}
	if core.Total.Cycles != 20 {
		t.Errorf("total cycles = %v", core.Total.Cycles)
	}
	core.ResetEpoch()
	if core.Epoch.Cycles != 0 || core.Tail.Cycles != 0 {
		t.Error("epoch reset incomplete")
	}
	if core.Total.Cycles != 20 {
		t.Error("reset clobbered lifetime counters")
	}
}

func TestCStateDemotion(t *testing.T) {
	core := NewCore(0, topo.Coord{Col: 0, Row: 1}, 26)
	q := 200 * sim.Microsecond
	core.RecordActive(q, Counters{Cycles: 1}, false)
	if core.CState != C0 {
		t.Fatalf("active core in %v", core.CState)
	}
	// Short idle: shallow halt.
	core.RecordIdleSpan(q)
	core.RecordIdleSpan(q)
	if core.CState != C1 {
		t.Errorf("after 400us idle: %v, want C1", core.CState)
	}
	// Long idle: deep sleep.
	for i := 0; i < 12; i++ {
		core.RecordIdleSpan(q)
	}
	if core.CState != C6 {
		t.Errorf("after long idle: %v, want C6", core.CState)
	}
	// Waking resets the ladder.
	core.RecordActive(q, Counters{Cycles: 1}, false)
	if core.CState != C0 {
		t.Error("activity did not wake the core")
	}
}

// A cold core is asleep: its first idle quanta leave it in C6, whether it
// was just built or just reset.
func TestColdCoreStaysInC6(t *testing.T) {
	q := 200 * sim.Microsecond
	core := NewCore(0, topo.Coord{Col: 0, Row: 1}, 26)
	for _, phase := range []string{"new", "reset"} {
		for i := 1; i <= 12; i++ {
			core.RecordIdleSpan(q)
			if core.CState != C6 {
				t.Fatalf("%s core after %d idle quanta: %v, want C6", phase, i, core.CState)
			}
		}
		core.RecordActive(q, Counters{Cycles: 1}, false)
		core.Reset()
		if core.CState != C6 {
			t.Fatalf("reset core in %v, want C6", core.CState)
		}
	}
}

func TestExitLatencies(t *testing.T) {
	if C0.ExitLatency() != 0 {
		t.Error("C0 has exit latency")
	}
	if C6.ExitLatency() <= C1.ExitLatency() {
		t.Error("deeper C-state not slower to exit (§2.2.2)")
	}
	if C6.String() != "C6" {
		t.Errorf("String() = %q", C6.String())
	}
}

func TestAboveBase(t *testing.T) {
	core := NewCore(0, topo.Coord{Col: 0, Row: 1}, 26)
	if core.AboveBase() {
		t.Error("core at base reported above base")
	}
	core.Freq = 30
	if !core.AboveBase() {
		t.Error("turbo core not reported above base")
	}
}

func TestDVFSNext(t *testing.T) {
	d := DefaultDVFS(PolicyPowersave)
	if f := d.Next(0); f != d.Min {
		t.Errorf("idle powersave P-state %v, want floor", f)
	}
	if f := d.Next(1); f != d.Base {
		t.Errorf("busy powersave P-state %v, want base", f)
	}
	if f := d.Next(2); f != d.Base {
		t.Errorf("clamping failed: %v", f)
	}
	mid := d.Next(0.5)
	if mid <= d.Min || mid >= d.Base {
		t.Errorf("half-busy P-state %v outside (min, base)", mid)
	}
	p := DefaultDVFS(PolicyPerformance)
	if f := p.Next(0.5); f != p.Turbo {
		t.Errorf("performance P-state %v, want turbo", f)
	}
	if f := p.Next(0); f != p.Base {
		t.Errorf("idle performance P-state %v, want base", f)
	}
	n := DefaultDVFS(PolicyNone)
	if f := n.Next(0.5); f != 0 {
		t.Errorf("PolicyNone returned %v, want 0 (keep current)", f)
	}
	if PolicyPowersave.String() != "powersave" || PolicyNone.String() != "none" {
		t.Error("policy strings wrong")
	}
}
