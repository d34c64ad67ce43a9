package sim_test

// The engine's hot-path shapes. Each is a setup that returns one step:
// BenchmarkX loops the step, and TestZeroAlloc checks that it does not
// allocate — the heap scheduler's contract is zero allocations per tick
// in steady state.

import (
	"testing"

	"repro/internal/sim"
)

// engineDispatch steps one engine instant with a realistic ticker
// population: many same-period tickers (threads) plus a slower one (the
// governor epoch), mirroring the machine's schedule.
func engineDispatch(testing.TB) func() {
	e := sim.NewEngine()
	period := 200 * sim.Microsecond
	for i := 0; i < 16; i++ {
		e.Add(&sim.Ticker{Name: "thread", Period: period, Priority: 0, Fn: func(sim.Time) {}})
	}
	e.Add(&sim.Ticker{Name: "epoch", Period: 50 * period, Priority: 10, Fn: func(sim.Time) {}})
	return func() { e.Run(period) }
}

func TestZeroAlloc(t *testing.T) {
	for _, s := range []struct {
		name  string
		setup func(testing.TB) func()
	}{
		{"engine-dispatch", engineDispatch},
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

func BenchmarkEngineDispatch(b *testing.B) { loop(b, engineDispatch) }
