package system_test

// A reference model for per-core idle accounting. The machine applies a
// core's idle time lazily, at the points where it is observed; the model
// applies it eagerly, one quantum at a time, to its own cpu.Core ladder,
// from a log that unmarked workloads write on every Step. The two must
// agree on every core's C-state after any Run, and from inside a Step,
// where the quantum being walked is not over yet.

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/system"
)

// idleModel replays the machine's quanta one at a time: at each quantum
// boundary a core logged active at it returns to C0, and every other core
// accumulates one quantum of idle time.
type idleModel struct {
	t      *testing.T
	m      *system.Machine
	q      sim.Time
	cores  [][]*cpu.Core
	doneAt sim.Time // the boundary through which the model is applied
	log    []activeAt
	probes int // in-Step checks made
}

// activeAt records that a core was active in the quantum ending at end.
type activeAt struct {
	end          sim.Time
	socket, core int
}

func newIdleModel(t *testing.T, m *system.Machine) *idleModel {
	md := &idleModel{t: t, m: m, q: m.Config().Quantum}
	for _, s := range m.Sockets() {
		var cores []*cpu.Core
		for _, c := range s.Cores {
			cores = append(cores, cpu.NewCore(c.ID, c.Tile, c.Base))
		}
		md.cores = append(md.cores, cores)
	}
	return md
}

// reset mirrors Machine.Reset: cold cores, time zero, no log.
func (md *idleModel) reset() {
	for _, cores := range md.cores {
		for _, c := range cores {
			c.Reset()
		}
	}
	md.doneAt, md.log = 0, md.log[:0]
}

// advance applies every quantum ending in (doneAt, to].
func (md *idleModel) advance(to sim.Time) {
	for md.doneAt+md.q <= to {
		b := md.doneAt + md.q
		active := map[[2]int]bool{}
		for len(md.log) > 0 && md.log[0].end == b {
			active[[2]int{md.log[0].socket, md.log[0].core}] = true
			md.log = md.log[1:]
		}
		for s, cores := range md.cores {
			for i, c := range cores {
				if active[[2]int{s, i}] {
					c.RecordActive(md.q, cpu.Counters{}, false)
				} else {
					c.RecordIdleSpan(md.q)
				}
			}
		}
		md.doneAt = b
	}
}

// want returns the C-state the model expects of a core at the current
// instant: the model's ladder, or C0 for a core that has already stepped
// active in the quantum ending now.
func (md *idleModel) want(socket, core int) cpu.CState {
	now := md.m.Now()
	for _, e := range md.log {
		if e.end == now && e.socket == socket && e.core == core {
			return cpu.C0
		}
	}
	return md.cores[socket][core].CState
}

// check compares a wake-latency probe of the given core, then every
// core's C-state, with the model, which must already be advanced.
func (md *idleModel) check(where string, socket, core int, seed uint64) {
	md.t.Helper()
	got := md.m.WakeLatency(socket, core, sim.NewRand(seed))
	s := md.m.Socket(socket)
	want := md.want(socket, core).ExitLatency() + s.Gov.PC().ExitLatency() + sim.NewRand(seed).Jitter(2*sim.Microsecond)
	if md.m.PlatformIdle() {
		want += system.PlatformExitLatency
	}
	if got != want {
		md.t.Fatalf("%s at %v: WakeLatency(%d, %d) = %v, model %v", where, md.m.Now(), socket, core, got, want)
	}
	for si, s := range md.m.Sockets() {
		for _, c := range s.Cores {
			if w := md.want(si, c.ID); c.CState != w {
				md.t.Fatalf("%s at %v: core %d/%d in %v, model %v", where, md.m.Now(), si, c.ID, c.CState, w)
			}
		}
	}
}

// run advances the machine by d and checks it at the boundary the run
// ended on or after.
func (md *idleModel) run(d sim.Time, seed uint64) {
	md.t.Helper()
	md.m.Run(d)
	now := md.m.Now()
	md.advance(now - now%md.q)
	md.check("after Run", int(seed%2), int(seed/2%16), seed)
}

// logged is an unmarked workload, so it is stepped every quantum: it is
// active with probability p, logging each active quantum to the model,
// and with probe set it first checks the machine from inside its Step.
type logged struct {
	md           *idleModel
	socket, core int
	p            float64
	probe        bool
}

func (w *logged) Step(ctx *system.Ctx) system.Activity {
	md := w.md
	rng := ctx.Rng()
	if w.probe && rng.Bool(0.5) {
		// The quantum ending now is being walked: the model stands at the
		// previous boundary, with the cores stepped active so far in C0.
		md.advance(md.m.Now() - md.q)
		md.check("inside Step", rng.IntN(2), rng.IntN(16), rng.Uint64())
		md.probes++
	}
	if !rng.Bool(w.p) {
		return system.Activity{}
	}
	md.log = append(md.log, activeAt{md.m.Now(), w.socket, w.core})
	return system.Activity{Active: true, Cycles: ctx.CoreFreq().CyclesIn(ctx.Quantum() / 4)}
}

// idleSchedule drives a machine through seeded spawns, stops, idled and
// re-programmed threads, a Reset, and runs that end on and off the
// quantum and epoch grids, checking the model after every run.
func idleSchedule(md *idleModel, seed uint64, steps int) {
	rng := sim.NewRand(seed)
	m := md.m
	workload := func(s, c int) *logged {
		return &logged{md: md, socket: s, core: c, p: [...]float64{0, 0.3, 0.8, 1}[rng.IntN(4)], probe: rng.Bool(0.3)}
	}
	var live []*system.Thread
	for i := 0; i < steps; i++ {
		switch rng.IntN(8) {
		case 0, 1, 2:
			s, c := rng.IntN(2), rng.IntN(16)
			if !m.CoreBusy(s, c) {
				live = append(live, m.Spawn(fmt.Sprintf("t%d", i), s, c, 0, workload(s, c)))
			}
		case 3:
			if len(live) > 0 {
				th := live[rng.IntN(len(live))]
				if rng.Bool(0.5) {
					th.SetWorkload(nil)
				} else {
					th.SetWorkload(workload(th.Sock.ID, th.Core.ID))
				}
			}
		case 4:
			if len(live) > 0 {
				j := rng.IntN(len(live))
				live[j].Stop()
				live = append(live[:j], live[j+1:]...)
				if rng.Bool(0.5) {
					m.Reap()
				}
			}
		case 5:
			// Idle every thread long enough for skip-ahead to de-arm.
			for _, th := range live {
				th.SetWorkload(nil)
			}
			md.run(sim.Time(5+rng.IntN(40))*sim.Millisecond, rng.Uint64())
		case 6:
			if rng.Bool(0.1) {
				m.Reset(m.Config().Seed)
				md.reset()
				live = live[:0]
			}
		}
		// A whole number of quanta half the time, else off the grid.
		d := sim.Time(1+rng.IntN(80)) * md.q
		if rng.Bool(0.5) {
			d += sim.Time(1 + rng.IntN(int(md.q-1)))
		}
		md.run(d, rng.Uint64())
	}
}

// TestIdleAccountingMatchesModel checks the machine's lazy idle
// accounting against the per-quantum model, with and without skip-ahead.
func TestIdleAccountingMatchesModel(t *testing.T) {
	for _, skip := range []bool{true, false} {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("skip=%v/seed=%d", skip, seed), func(t *testing.T) {
				cfg := system.DefaultConfig()
				cfg.Seed = seed
				m := system.New(cfg)
				m.SetSkipAhead(skip)
				md := newIdleModel(t, m)
				idleSchedule(md, seed, 120)
				if md.probes == 0 {
					t.Fatal("no check ran inside a Step")
				}
			})
		}
	}
}
