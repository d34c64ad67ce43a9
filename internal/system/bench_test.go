package system_test

// The machine-level hot paths: whole quanta and governor epochs, idle
// epochs with and without skip-ahead, and the pool's Reset. Each shape is
// a setup that returns one step: BenchmarkX loops the step, and
// TestZeroAlloc checks that it does not allocate.

import (
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// busyMachine builds a machine with a representative mixed load: traffic
// threads, a stalling thread, and a measurement probe.
func busyMachine(tb testing.TB) *system.Machine {
	m := system.New(system.DefaultConfig())
	for c := 0; c < 6; c++ {
		slice, ok := m.Socket(0).Die.SliceAtHops(c, 1)
		if !ok {
			slice, _ = m.Socket(0).Die.SliceAtHops(c, 0)
		}
		m.Spawn("bench-traffic", 0, c, 0, &workload.Traffic{Slice: slice})
	}
	slice, _ := m.Socket(0).Die.SliceAtHops(8, 0)
	m.Spawn("bench-stall", 0, 8, 0, &workload.Stalling{Slice: slice})
	lines, err := memsys.EvictionList(m.Socket(0).Hier, 0, memsys.NewAllocator(), 10, slice, 20)
	if err != nil {
		tb.Fatal(err)
	}
	m.Spawn("bench-probe", 0, 9, 0, &workload.Measure{Lines: lines, PerQuantum: 20})
	return m
}

// machineQuantum is the simulator's core loop: the busy machine advancing
// a single quantum.
func machineQuantum(tb testing.TB) func() {
	m := busyMachine(tb)
	q := m.Config().Quantum
	return func() { m.Run(q) }
}

// machineEpoch is one full governor epoch of the busy machine.
func machineEpoch(tb testing.TB) func() {
	m := busyMachine(tb)
	e := m.Config().UFS.Epoch
	return func() { m.Run(e) }
}

// idleEpoch advances an inert machine by one governor epoch. With
// skip-ahead the quantum ticker de-arms after the first empty quantum and
// the engine jumps straight between epoch deadlines, so the cost is one
// governor decision per epoch rather than 50 quantum walks; the stepped
// shape is the same machine with skip-ahead off, and the ratio of the two
// benchmarks is the idle-elision win.
func idleEpoch(skip bool) func(testing.TB) func() {
	return func(testing.TB) func() {
		m := system.New(system.DefaultConfig())
		m.SetSkipAhead(skip)
		e := m.Config().UFS.Epoch
		return func() { m.Run(e) }
	}
}

// steadyQuantum is one quantum of stationary loads (traffic, a stalling
// thread, an idle core) after 20 ms of warm-up: replayed from the
// thread's recorded quantum, or with stepped set, stepped every quantum
// as the reference runs of steady_test.go are.
func steadyQuantum(stepped bool) func(testing.TB) func() {
	return func(testing.TB) func() {
		r := &steadyRun{m: system.New(system.DefaultConfig()), ref: stepped}
		for c := 0; c < 6; c++ {
			slice, _ := r.m.Socket(0).Die.SliceAtHops(c, 1)
			r.spawn("traffic", 0, c, &workload.Traffic{Slice: slice})
		}
		slice, _ := r.m.Socket(0).Die.SliceAtHops(8, 0)
		r.spawn("stall", 0, 8, &workload.Stalling{Slice: slice})
		r.spawn("nop", 0, 9, workload.Nop{})
		r.m.Run(20 * sim.Millisecond)
		q := r.m.Config().Quantum
		return func() { r.m.Run(q) }
	}
}

// resetStep is the pool's recycling step: Machine.Reset of a machine
// whose probe thread walked one eviction list since its last reset, the
// cost a pooled settle-dominated trial pays in Pool.Get. Reset drops the
// thread, so each step replays the 20-line walk through the thread's
// private caches, which Reset keeps attached. The step adds the time
// Reset itself took to *spent.
func resetStep(tb testing.TB, spent *time.Duration) func() {
	m := system.New(system.DefaultConfig())
	slice, _ := m.Socket(0).Die.SliceAtHops(9, 0)
	lines, err := memsys.EvictionList(m.Socket(0).Hier, 0, memsys.NewAllocator(), 10, slice, 20)
	if err != nil {
		tb.Fatal(err)
	}
	probe := m.Spawn("bench-probe", 0, 9, 0, &workload.Measure{Lines: lines})
	m.Run(m.Config().Quantum)
	seed := m.Config().Seed
	return func() {
		start := time.Now()
		m.Reset(seed)
		*spent += time.Since(start)
		for _, l := range lines {
			probe.Caches.Access(0, l)
		}
	}
}

func machineReset(tb testing.TB) func() { return resetStep(tb, new(time.Duration)) }

func TestZeroAlloc(t *testing.T) {
	for _, s := range []struct {
		name  string
		setup func(testing.TB) func()
	}{
		{"machine-quantum", machineQuantum},
		{"machine-epoch", machineEpoch},
		{"machine-epoch-idle", idleEpoch(true)},
		{"machine-epoch-idle-stepped", idleEpoch(false)},
		{"machine-reset", machineReset},
		{"steady-quantum-replayed", steadyQuantum(false)},
		{"steady-quantum-stepped", steadyQuantum(true)},
	} {
		t.Run(s.name, func(t *testing.T) {
			if a := testing.AllocsPerRun(100, s.setup(t)); a != 0 {
				t.Errorf("%s allocates %v times per step, want 0", s.name, a)
			}
		})
	}
}

// loop times setup's step.
func loop(b *testing.B, setup func(testing.TB) func()) {
	step := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkMachineQuantum(b *testing.B)          { loop(b, machineQuantum) }
func BenchmarkMachineEpoch(b *testing.B)            { loop(b, machineEpoch) }
func BenchmarkMachineEpochIdle(b *testing.B)        { loop(b, idleEpoch(true)) }
func BenchmarkMachineEpochIdleStepped(b *testing.B) { loop(b, idleEpoch(false)) }

// BenchmarkMachineReset reports Reset's own share of each step as
// reset-ns/op; the cold walk stays on the clock, because pausing the
// timer around it costs far more than the walk.
func BenchmarkMachineReset(b *testing.B) {
	var spent time.Duration
	loop(b, func(tb testing.TB) func() { return resetStep(tb, &spent) })
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "reset-ns/op")
}
