package system_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// plain hides a workload's Stationary marker: an embedded interface
// promotes only Step, so the machine steps every quantum of a plain
// workload. Reference runs wrap every workload in it.
type plain struct{ system.Workload }

// budgeted is the traffic loop reporting cycles only for the unpreempted
// share of its quantum: a legal Stationary workload whose output a
// PreemptGap changes, so a quantum replayed over a gap would show.
type budgeted struct{ workload.Traffic }

func (w *budgeted) Step(ctx *system.Ctx) system.Activity {
	a := w.Traffic.Step(ctx)
	a.Cycles = ctx.CoreFreq().CyclesIn(ctx.Remaining())
	return a
}

// noisy claims to be Stationary but draws from the thread's stream or
// flushes a line every quantum; the machine must notice and step it.
type noisy struct {
	workload.Stalling
	flush bool
}

func (w *noisy) Step(ctx *system.Ctx) system.Activity {
	a := w.Stalling.Step(ctx)
	if w.flush {
		ctx.Flush(cache.Line(0x40 * (w.Slice + 1)))
	} else {
		a.PowerUnits += ctx.Rng().Float64()
	}
	return a
}

// spread injects traffic toward three slices, one more than a recorded
// quantum holds, so it is stepped every quantum.
type spread struct{ slices [3]int }

func (w *spread) Step(ctx *system.Ctx) system.Activity {
	for i, s := range w.slices {
		ctx.InjectTraffic(s, float64(100*(i+1))*ctx.UncoreFreq().GHz())
	}
	return system.Activity{Active: true, Cycles: ctx.CoreFreq().CyclesIn(ctx.Quantum())}
}

func (*spread) Stationary() {}

// counted is the traffic loop counting its Step calls.
type counted struct {
	workload.Traffic
	steps int
}

func (w *counted) Step(ctx *system.Ctx) system.Activity {
	w.steps++
	return w.Traffic.Step(ctx)
}

// steadySignature folds what a governor epoch leaves behind into one
// string, every float in full bits: each socket's uncore frequency,
// epoch count, package C-state, mesh flit-hops and quantum power, and
// each core's frequency, C-state and counters.
func steadySignature(m *system.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v", m.Now())
	for i, s := range m.Sockets() {
		fmt.Fprintf(&b, " s%d[%v e=%d pc=%d hops=%x pw=%x", i, s.Uncore(), s.Gov.Epochs(), s.Gov.PC(),
			math.Float64bits(s.Mesh.TotalFlitHops()), math.Float64bits(s.QuantumPower()))
		for _, c := range s.Cores {
			fmt.Fprintf(&b, " %v/%v", c.Freq, c.CState)
			for _, k := range [...]cpu.Counters{c.Total, c.Epoch, c.Tail} {
				fmt.Fprintf(&b, "/%x,%x,%x", math.Float64bits(k.Cycles),
					math.Float64bits(k.StallCycles), math.Float64bits(k.LLCAccesses))
			}
		}
		b.WriteString("]")
	}
	return b.String()
}

// steadyRun drives one machine through a scenario, recording a signature
// after every governor epoch. With ref set every workload is wrapped in
// plain, so the run steps every quantum.
type steadyRun struct {
	m    *system.Machine
	ref  bool
	sigs []string
}

func (r *steadyRun) wrap(w system.Workload) system.Workload {
	if r.ref && w != nil {
		return plain{w}
	}
	return w
}

func (r *steadyRun) spawn(name string, socket, core int, w system.Workload) *system.Thread {
	return r.m.Spawn(name, socket, core, 0, r.wrap(w))
}

func (r *steadyRun) run(d sim.Time) {
	epoch := r.m.Config().UFS.Epoch
	for d > 0 {
		step := min(d, epoch)
		r.m.Run(step)
		d -= step
		r.sigs = append(r.sigs, steadySignature(r.m))
	}
}

// fig3Grid is the Figure 3 quick grid: n traffic threads at h hops, or
// L2-resident chases for h < 0, settled and sampled as the experiment
// does.
func fig3Grid(r *steadyRun) {
	for _, h := range []int{-1, 0, 1, 2, 3} {
		for _, n := range []int{1, 2, 7, 16} {
			for c := 0; c < n; c++ {
				if h < 0 {
					r.spawn("l2chase", 0, c, workload.L2Chase{})
					continue
				}
				slice, ok := r.m.Socket(0).Die.SliceAtHops(c, h)
				if !ok {
					slice, _ = r.m.Socket(0).Die.SliceAtHops(c, 0)
				}
				r.spawn(fmt.Sprintf("traffic-%d", c), 0, c, &workload.Traffic{Slice: slice})
			}
			r.run(1300 * sim.Millisecond)
			r.m.Reset(r.m.Config().Seed + 1)
		}
	}
}

// fig4Grid is the Figure 4 quick grid: s local pointer chases beside k
// compute loops.
func fig4Grid(r *steadyRun) {
	for _, s := range []int{1, 3, 5} {
		for k := 0; s+k <= 16; k += 3 {
			core := 0
			for i := 0; i < s; i++ {
				slice, _ := r.m.Socket(0).Die.SliceAtHops(core, 0)
				r.spawn(fmt.Sprintf("stall-%d", i), 0, core, &workload.Stalling{Slice: slice})
				core++
			}
			for i := 0; i < k; i++ {
				r.spawn(fmt.Sprintf("busy-%d", i), 0, core, workload.Nop{})
				core++
			}
			r.run(1600 * sim.Millisecond)
			r.m.Reset(r.m.Config().Seed + 1)
		}
	}
}

// randomWorkload draws one program for a thread on the given core: the
// marked loops, the edge-case test workloads above, and unmarked ones (a
// timed probe reading this quantum's partial mesh loads, a phase switch).
func randomWorkload(rng *sim.Rand, m *system.Machine, socket, core int) system.Workload {
	die := m.Socket(socket).Die
	slice, ok := die.SliceAtHops(core, rng.IntN(4))
	if !ok {
		slice, _ = die.SliceAtHops(core, 0)
	}
	switch rng.IntN(10) {
	case 0:
		return &workload.Stalling{Slice: slice}
	case 1:
		return workload.Nop{}
	case 2:
		return workload.L2Chase{}
	case 3:
		return &budgeted{workload.Traffic{Slice: slice}}
	case 4:
		return &noisy{Stalling: workload.Stalling{Slice: slice}, flush: rng.Bool(0.5)}
	case 5:
		return &spread{[3]int{slice, (slice + 5) % die.NumSlices(), (slice + 11) % die.NumSlices()}}
	case 6:
		lines, err := memsys.EvictionList(m.Socket(socket).Hier, 0, memsys.NewAllocator(), 10, slice, 12)
		if err != nil {
			panic(err)
		}
		return &workload.Measure{Lines: lines, PerQuantum: 8}
	case 7:
		return &workload.Phased{Phases: []workload.Phase{
			{Until: m.Now() + sim.Time(rng.IntN(40))*sim.Millisecond, W: &workload.Traffic{Slice: slice}},
			{Until: m.Now() + 80*sim.Millisecond, W: workload.Nop{}},
		}}
	default:
		return &workload.Traffic{Slice: slice}
	}
}

// randomSchedule spawns, re-programs, stops and idles threads, and moves
// core frequencies, at random off-grid instants.
func randomSchedule(seed uint64, steps int) func(r *steadyRun) {
	return func(r *steadyRun) {
		rng := sim.NewRand(seed)
		var live []*system.Thread
		for i := 0; i < steps; i++ {
			switch rng.IntN(7) {
			case 0, 1, 2:
				s := rng.IntN(2)
				c := rng.IntN(16)
				if r.m.CoreBusy(s, c) {
					break
				}
				live = append(live, r.spawn(fmt.Sprintf("t%d", i), s, c, randomWorkload(rng, r.m, s, c)))
			case 3:
				if len(live) > 0 {
					th := live[rng.IntN(len(live))]
					var w system.Workload
					if rng.Bool(0.8) {
						w = randomWorkload(rng, r.m, th.Sock.ID, th.Core.ID)
					}
					th.SetWorkload(r.wrap(w))
				}
			case 4:
				if len(live) > 0 {
					j := rng.IntN(len(live))
					live[j].Stop()
					live = append(live[:j], live[j+1:]...)
					r.m.Reap()
				}
			case 5:
				if len(live) > 0 {
					live[rng.IntN(len(live))].Core.Freq = sim.Freq(12 + rng.IntN(15))
				}
			case 6:
				// Idle every thread long enough for the quantum ticker
				// to de-arm; the next spawn or program re-arms it.
				for _, th := range live {
					th.SetWorkload(nil)
				}
				r.run(sim.Time(20+rng.IntN(30)) * sim.Millisecond)
			}
			r.run(sim.Time(rng.IntN(40))*sim.Millisecond + sim.Time(1+rng.IntN(9))*100*sim.Microsecond)
		}
	}
}

// withFaults attaches the default fault mix at intensity 0.3 (co-runner
// bursts, governor holds and drift, dropped samples, preemption gaps)
// before running the schedule.
func withFaults(seed uint64, schedule func(r *steadyRun)) func(r *steadyRun) {
	return func(r *steadyRun) {
		if err := faults.New(faults.DefaultConfig(0.3), sim.NewRand(seed)).Attach(r.m); err != nil {
			panic(err)
		}
		schedule(r)
	}
}

// TestSteadyQuantaMatchStepped is the contract test for steady-quantum
// replay: a machine replaying Stationary workloads' recorded quanta must
// match, bit for bit after every epoch, a machine stepping every quantum
// of the same workloads. Every steady run but the first gets a pooled
// machine the previous case left behind, so a record surviving Reset
// would show.
func TestSteadyQuantaMatchStepped(t *testing.T) {
	powersave := func(cfg *system.Config) { cfg.DVFS = cpu.DefaultDVFS(cpu.PolicyPowersave) }
	cases := []struct {
		name     string
		cfg      func(*system.Config)
		scenario func(r *steadyRun)
	}{
		{"fig3-quick", nil, fig3Grid},
		{"fig4-quick", nil, fig4Grid},
		{"random", nil, randomSchedule(11, 60)},
		{"random-dvfs", powersave, randomSchedule(12, 60)},
		{"faults", nil, withFaults(13, randomSchedule(13, 80))},
		{"faults-dvfs", powersave, withFaults(14, randomSchedule(14, 80))},
	}
	pool := &system.Pool{}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := system.DefaultConfig()
			cfg.Seed = uint64(100 + i)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			ref := &steadyRun{m: system.New(cfg), ref: true}
			tc.scenario(ref)
			got := &steadyRun{m: pool.Get(cfg)}
			tc.scenario(got)
			pool.Put(got.m)
			if len(got.sigs) != len(ref.sigs) {
				t.Fatalf("%d epochs sampled, reference %d", len(got.sigs), len(ref.sigs))
			}
			for e := range ref.sigs {
				if got.sigs[e] != ref.sigs[e] {
					t.Fatalf("sample %d diverged:\n  steady:  %s\n  stepped: %s", e, got.sigs[e], ref.sigs[e])
				}
			}
		})
	}
}

// A Stationary thread is stepped once per change of its inputs — the
// uncore frequency moves only at governor epochs — while its plain twin
// is stepped every quantum.
func TestSteadyQuantaStepOncePerInput(t *testing.T) {
	if _, ok := system.Workload(plain{&workload.Traffic{}}).(system.Stationary); ok {
		t.Fatal("plain does not hide the Stationary marker; the reference runs would replay")
	}
	m := system.New(system.DefaultConfig())
	slice, _ := m.Socket(0).Die.SliceAtHops(0, 2)
	steady := &counted{Traffic: workload.Traffic{Slice: slice}}
	stepped := &counted{Traffic: workload.Traffic{Slice: slice}}
	m.Spawn("steady", 0, 0, 0, steady)
	m.Spawn("stepped", 0, 1, 0, plain{stepped})
	const epochs = 20
	m.Run(epochs * m.Config().UFS.Epoch)
	if want := int(epochs * m.Config().UFS.Epoch / m.Config().Quantum); stepped.steps != want {
		t.Errorf("plain traffic stepped %d times, want every quantum (%d)", stepped.steps, want)
	}
	if steady.steps < 1 || steady.steps > epochs {
		t.Errorf("stationary traffic stepped %d times in %d epochs, want at most one per epoch", steady.steps, epochs)
	}
}

// Replayed and stepped quanta both allocate nothing.
func TestSteadyQuantaZeroAlloc(t *testing.T) {
	for _, ref := range []bool{false, true} {
		r := &steadyRun{m: system.New(system.DefaultConfig()), ref: ref}
		for c := 0; c < 6; c++ {
			slice, _ := r.m.Socket(0).Die.SliceAtHops(c, 1)
			r.spawn("traffic", 0, c, &workload.Traffic{Slice: slice})
		}
		slice, _ := r.m.Socket(0).Die.SliceAtHops(8, 0)
		r.spawn("stall", 0, 8, &workload.Stalling{Slice: slice})
		r.spawn("nop", 0, 9, workload.Nop{})
		r.m.Run(20 * sim.Millisecond)
		q := r.m.Config().Quantum
		if a := testing.AllocsPerRun(200, func() { r.m.Run(q) }); a != 0 {
			t.Errorf("stepped=%v: a quantum allocates %v times, want 0", ref, a)
		}
	}
}
