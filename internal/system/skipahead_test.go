package system

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// An idle machine de-arms its quantum ticker after the first quantum and
// runs O(events): a span that would blow a stepped machine's step budget
// by orders of magnitude fits comfortably under skip-ahead.
func TestSkipAheadIdleCostsOEvents(t *testing.T) {
	m := newTestMachine(1)
	m.Run(time100ms)
	if m.QuantumArmed() {
		t.Fatal("quantum ticker still armed on a machine with no threads")
	}
	// 100ms stepped = 500 quanta + 10 epochs; skip-ahead = 1 quantum +
	// 10 epochs = 11 ticks.
	if got := m.Engine().Steps(); got != 11 {
		t.Errorf("idle 100ms fired %d ticks, want 11", got)
	}

	// A step budget a stepped run would trip within the first 20 ms.
	m2 := newTestMachine(1)
	m2.SetStepBudget(150)
	if err := runBound(m2, context.Background(), sim.Second); err != nil {
		t.Fatalf("idle second under budget 150: %v", err)
	}
	m3 := newTestMachine(1)
	m3.SetSkipAhead(false)
	m3.SetStepBudget(150)
	if err := runBound(m3, context.Background(), sim.Second); err == nil {
		t.Fatal("stepped idle second did not trip a budget of 150; test premise broken")
	}
}

const time100ms = 100 * sim.Millisecond

// runBound binds ctx, runs m for d and returns the abort cause, or nil
// when the run completes: the supervisor's Bind + Run + AbortCause path.
func runBound(m *Machine, ctx context.Context, d sim.Time) (err error) {
	m.Bind(ctx)
	defer func() {
		if r := recover(); r != nil {
			cause, ok := sim.AbortCause(r)
			if !ok {
				panic(r)
			}
			err = cause
		}
	}()
	m.Run(d)
	return nil
}

// Spawning with a nil workload must not re-arm; arming the workload later
// must.
func TestSkipAheadWakeSources(t *testing.T) {
	m := newTestMachine(2)
	m.Run(time100ms)
	th := m.Spawn("latent", 0, 0, 0, nil)
	if m.QuantumArmed() {
		t.Fatal("Spawn with nil workload re-armed the quantum ticker")
	}
	m.Run(10 * sim.Millisecond)
	if m.QuantumArmed() {
		t.Fatal("quantum ticker re-armed with nothing runnable")
	}
	th.SetWorkload(spin())
	if !m.QuantumArmed() {
		t.Fatal("SetWorkload did not re-arm the quantum ticker")
	}
	// The re-armed quantum resumes on the 200 µs grid.
	m.Run(sim.Millisecond)
	if c := m.Socket(0).Cores[0]; c.CState != cpu.C0 {
		t.Errorf("woken core in %v, want C0", c.CState)
	}
}

// A stopped thread is not runnable: the machine de-arms at the next
// quantum even before Reap prunes the list.
func TestSkipAheadDearmsAfterStop(t *testing.T) {
	m := newTestMachine(3)
	th := m.Spawn("w", 0, 0, 0, spin())
	m.Run(10 * sim.Millisecond)
	if !m.QuantumArmed() {
		t.Fatal("quantum ticker de-armed with a runnable thread")
	}
	th.Stop()
	m.Run(sim.Millisecond)
	if m.QuantumArmed() {
		t.Fatal("quantum ticker still armed after the only thread stopped")
	}
}

// Reset of a de-armed machine must restore the armed cold state: the
// pooled-reuse path hands out machines mid-skip.
func TestSkipAheadResetRearms(t *testing.T) {
	m := newTestMachine(4)
	m.Run(time100ms)
	if m.QuantumArmed() {
		t.Fatal("precondition: machine should be de-armed")
	}
	m.Reset(4)
	if !m.QuantumArmed() {
		t.Fatal("Reset left the quantum ticker paused")
	}
}

// Disabling skip-ahead mid-skip re-arms immediately and catches up the
// idle bookkeeping.
func TestSetSkipAheadOffRearms(t *testing.T) {
	m := newTestMachine(5)
	m.Run(time100ms)
	m.SetSkipAhead(false)
	if !m.QuantumArmed() {
		t.Fatal("SetSkipAhead(false) left the ticker paused")
	}
	for _, c := range m.Socket(0).Cores {
		if c.CState != cpu.C6 {
			t.Fatalf("core %d in %v after 100ms idle, want C6", c.ID, c.CState)
		}
	}
}

// Cancellation must cut an elided idle run short within the engine's
// check lag (sim's ctxCheckEvery, 64 fired ticks) even though almost no
// ticks fire: a sampler on the epoch grid cancels 3 s into a 10 s idle
// run, which fires two ticks per 10 ms.
func TestSkipAheadCancellationLag(t *testing.T) {
	const checkLag = 64
	m := newTestMachine(6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atCancel int64
	m.Engine().Add(&sim.Ticker{Name: "canceller", Period: m.Config().UFS.Epoch, Priority: 100, Fn: func(now sim.Time) {
		if now == 3*sim.Second {
			atCancel = m.Engine().Steps()
			cancel()
		}
	}})
	err := runBound(m, ctx, 10*sim.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run = %v, want context.Canceled", err)
	}
	if m.QuantumArmed() {
		t.Fatal("quantum ticker armed; the run was not elided")
	}
	if m.Now() >= 10*sim.Second {
		t.Errorf("run reached %v, the end of its span", m.Now())
	}
	if lag := m.Engine().Steps() - atCancel; lag > checkLag {
		t.Errorf("%d ticks fired after the cancel, want at most %d", lag, checkLag)
	}
}
