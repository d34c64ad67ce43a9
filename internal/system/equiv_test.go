package system_test

// The equivalence harness for the machine's exact shortcuts: skip-ahead
// (quantum elision while nothing runs), steady replay (recorded quanta of
// Stationary workloads), deferred mesh accounting and pooled Reset. Each
// scenario runs under every combination of skip-ahead, steady replay and
// pooling and is compared, after every governor epoch, against the
// stepped, unreplayed, freshly built reference, which runs once per
// scenario: TestSteadyQuantaMatchStepped and TestResetReplaysNew take one
// shortcut each, TestEquivMachine the other five combinations. Deferred
// accounting has no switch and runs in every combination; its own
// reference is the mesh package's eager copy.

import (
	"fmt"
	"math"
	"strconv"
	"sync"
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

// digest folds the machine's observable state into one string, every
// float in full bits: time and platform idleness; per socket the uncore
// frequency, governor epochs and package C-state, MSR uncore clock, LLC
// insert/eviction counts, mesh flit-hops and quantum power; per core the
// frequency, C-state and Total/Epoch/Tail counters. Engine steps are left
// out: skip-ahead changes how many ticks fire, never what they compute.
// It appends with strconv rather than fmt, which would dominate the
// harness's run time.
func digest(m *system.Machine) string {
	b := fmt.Appendf(nil, "t=%d idle=%v", m.Now(), m.PlatformIdle())
	for i, s := range m.Sockets() {
		ins, evs := s.Hier.Stats()
		b = fmt.Appendf(b, " s%d[%d e=%d pc=%d uclk=%d llc=%d/%d", i, s.Uncore(), s.Gov.Epochs(), s.Gov.PC(),
			s.MSR.Uclk(), ins, evs)
		b = appendBits(b, s.Mesh.TotalFlitHops(), s.QuantumPower())
		for _, c := range s.Cores {
			b = strconv.AppendInt(append(b, ' '), int64(c.Freq), 10)
			b = strconv.AppendInt(append(b, '/'), int64(c.CState), 10)
			for _, k := range [...]cpu.Counters{c.Total, c.Epoch, c.Tail} {
				b = appendBits(b, k.Cycles, k.StallCycles, k.LLCAccesses)
			}
		}
		b = append(b, ']')
	}
	return string(b)
}

// appendBits appends each float's IEEE 754 bits in hex, comma-led.
func appendBits(b []byte, xs ...float64) []byte {
	for _, x := range xs {
		b = strconv.AppendUint(append(b, ','), math.Float64bits(x), 16)
	}
	return b
}

// equivRun drives one machine through a scenario, taking a digest after
// every governor epoch and a closing record. The reference run (want nil)
// keeps its n records in got; every other run compares each record to the
// reference's as it is produced and keeps the first divergence.
type equivRun struct {
	m    *system.Machine
	ref  bool // wrap every workload in plain
	want []string
	got  []string
	n    int
	diff string
	lats []float64 // latencies the scenario's Measure probes delivered
	// steps counts the engine ticks fired, summed over in-scenario Resets.
	steps int64
}

func (r *equivRun) wrap(w system.Workload) system.Workload {
	if r.ref && w != nil {
		return plain{w}
	}
	return w
}

func (r *equivRun) spawn(name string, socket, core int, w system.Workload) *system.Thread {
	return r.m.Spawn(name, socket, core, 0, r.wrap(w))
}

func (r *equivRun) record(s string) {
	if r.want == nil {
		r.got = append(r.got, s)
	} else if r.diff == "" && (r.n >= len(r.want) || r.want[r.n] != s) {
		r.diff = fmt.Sprintf("record %d diverged:\n  got:       %s\n  reference: %s", r.n, s, r.want[min(r.n, len(r.want)-1)])
	}
	r.n++
}

// run advances the machine by d, one governor epoch at a time, recording
// a digest after each.
func (r *equivRun) run(d sim.Time) {
	epoch := r.m.Config().UFS.Epoch
	for d > 0 {
		step := min(d, epoch)
		r.m.Run(step)
		d -= step
		r.record(digest(r.m))
	}
}

func (r *equivRun) reset(seed uint64) {
	r.steps += r.m.Engine().Steps()
	r.m.Reset(seed)
}

// finish records the closing probes: a wake latency, a draw from a
// labelled machine stream and every Measure latency.
func (r *equivRun) finish() {
	r.steps += r.m.Engine().Steps()
	r.record(fmt.Sprintf("wake=%d rand=%d lat=%x",
		r.m.WakeLatency(0, 3, r.m.Rand(1)), r.m.Rand(0xabc).Uint64(), r.lats))
}

// fig3Grid is the Figure 3 quick grid: n traffic threads at h hops, or
// L2-resident chases for h < 0, settled and sampled as the experiment
// does.
func fig3Grid(r *equivRun) {
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
			r.reset(r.m.Config().Seed + 1)
		}
	}
}

// fig4Grid is the Figure 4 quick grid: s local pointer chases beside k
// compute loops.
func fig4Grid(r *equivRun) {
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
			r.reset(r.m.Config().Seed + 1)
		}
	}
}

// randomWorkload draws one program for a thread on the given core: the
// marked loops, the edge-case test workloads above, and unmarked ones (a
// timed probe reading this quantum's partial mesh loads, a phase switch).
func randomWorkload(r *equivRun, rng *sim.Rand, socket, core int) system.Workload {
	m := r.m
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
		return &workload.Measure{Lines: lines, PerQuantum: 8,
			Sink: func(_ sim.Time, cycles float64) { r.lats = append(r.lats, cycles) }}
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
func randomSchedule(seed uint64, steps int) func(r *equivRun) {
	return func(r *equivRun) {
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
				live = append(live, r.spawn(fmt.Sprintf("t%d", i), s, c, randomWorkload(r, rng, s, c)))
			case 3:
				if len(live) > 0 {
					th := live[rng.IntN(len(live))]
					var w system.Workload
					if rng.Bool(0.8) {
						w = randomWorkload(r, rng, th.Sock.ID, th.Core.ID)
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
func withFaults(seed uint64, schedule func(r *equivRun)) func(r *equivRun) {
	return func(r *equivRun) {
		if err := faults.New(faults.DefaultConfig(0.3), sim.NewRand(seed)).Attach(r.m); err != nil {
			panic(err)
		}
		schedule(r)
	}
}

// scriptedRun drives the machine through idle stretches, spawns, workload
// swaps, stops, off-grid run spans and a Reset while the quantum ticker
// is de-armed: every wake source and idle catch-up path.
func scriptedRun(r *equivRun) {
	r.run(100 * sim.Millisecond) // long idle: cores demote, platform sleeps
	th := r.spawn("worker", 0, 3, workload.Nop{})
	r.run(30 * sim.Millisecond)
	th.SetWorkload(nil) // idle the core without stopping the thread
	r.run(50 * sim.Millisecond)
	th.SetWorkload(r.wrap(workload.Nop{}))          // wake source: SetWorkload
	r.run(10*sim.Millisecond + 300*sim.Microsecond) // off-grid end
	th.Stop()
	r.m.Reap()
	r.run(70*sim.Millisecond + 100*sim.Microsecond) // idle again, off-grid
	r.reset(r.m.Config().Seed)                      // de-armed under skip-ahead
	r.run(20 * sim.Millisecond)
	r.spawn("late", 1, 5, workload.Nop{}) // wake source: Spawn, other socket
	r.run(25 * sim.Millisecond)
}

// pooled returns a machine for cfg from a pool holding one machine used
// at another seed. That machine ran with faults attached (without
// co-runners, so it can go idle) and with a probe on core 12 of each
// socket walking eviction lists over every LLC slice, leaving lines in
// many L1, L2 and LLC sets; the lists start at L2 set 10, so on socket 0
// they include the random probes' own lines, and a line Reset left behind
// would turn their misses into hits or snoops. It then got a custom LLC
// index function and stopped inside an epoch's tail window with its
// quantum ticker de-armed and governor inputs accumulated: Reset has
// everything to undo.
func pooled(t *testing.T, cfg system.Config) *system.Machine {
	t.Helper()
	dirty := cfg
	dirty.Seed ^= 0xd1d7
	m := system.New(dirty)
	fc := faults.DefaultConfig(0.3)
	fc.CoRunners = 0
	if err := faults.New(fc, sim.NewRand(dirty.Seed)).Attach(m); err != nil {
		t.Fatal(err)
	}
	slice, _ := m.Socket(0).Die.SliceAtHops(0, 2)
	threads := []*system.Thread{m.Spawn("dirty-traffic", 0, 0, 0, &workload.Traffic{Slice: slice})}
	for s, sock := range m.Sockets() {
		var lines []cache.Line
		for slice := 0; slice < sock.Die.NumSlices(); slice++ {
			lists, err := memsys.EvictionLists(sock.Hier, 0, memsys.NewAllocator(), 10, slice, 24, 20)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range lists {
				lines = append(lines, l...)
			}
		}
		threads = append(threads, m.Spawn(fmt.Sprintf("dirty-probe-%d", s), s, 12, 0, &workload.Measure{Lines: lines, PerQuantum: 256}))
	}
	m.Run(15 * sim.Millisecond)
	for _, th := range threads {
		th.Stop()
	}
	m.Socket(0).Hier.SetIndexFn(func(_ cache.Domain, _ cache.Line, _ int) int { return 0 })
	m.Run(cfg.Quantum)
	if m.QuantumArmed() {
		t.Fatal("dirtied machine still armed after its threads stopped")
	}
	pool := &system.Pool{}
	pool.Put(m)
	if got := pool.Get(cfg); got != m {
		t.Fatal("pool built a fresh machine instead of recycling")
	}
	return m
}

// shortcuts is one combination of the machine's switchable shortcuts. The
// zero value is the reference: stepped, plain, freshly built.
type shortcuts struct{ skip, steady, pooled bool }

func (s shortcuts) String() string {
	return fmt.Sprintf("skip=%v steady=%v pooled=%v", s.skip, s.steady, s.pooled)
}

// equivCase is one scenario of the harness with its reference run,
// computed once and shared by every test that compares against it.
type equivCase struct {
	name     string
	seed     uint64
	cfg      func(*system.Config)
	idles    bool // some quanta find nothing runnable
	scenario func(r *equivRun)

	once  sync.Once
	want  []string
	steps int64
}

var equivCases = func() []*equivCase {
	powersave := func(cfg *system.Config) { cfg.DVFS = cpu.DefaultDVFS(cpu.PolicyPowersave) }
	return []*equivCase{
		{name: "fig3-quick", seed: 100, scenario: fig3Grid},
		{name: "fig4-quick", seed: 101, scenario: fig4Grid},
		{name: "random", seed: 102, idles: true, scenario: randomSchedule(11, 60)},
		{name: "random-dvfs", seed: 103, cfg: powersave, idles: true, scenario: randomSchedule(12, 60)},
		{name: "faults", seed: 104, scenario: withFaults(13, randomSchedule(13, 80))}, // co-runners never stop
		{name: "faults-dvfs", seed: 105, cfg: powersave, scenario: withFaults(14, randomSchedule(14, 80))},
		{name: "script", seed: 106, idles: true, scenario: scriptedRun},
	}
}()

// run drives the scenario under mode; want nil makes it a reference run.
func (tc *equivCase) run(t *testing.T, mode shortcuts, want []string) *equivRun {
	cfg := system.DefaultConfig()
	cfg.Seed = tc.seed
	if tc.cfg != nil {
		tc.cfg(&cfg)
	}
	m := system.New
	if mode.pooled {
		m = func(cfg system.Config) *system.Machine { return pooled(t, cfg) }
	}
	r := &equivRun{m: m(cfg), ref: !mode.steady, want: want}
	r.m.SetSkipAhead(mode.skip)
	tc.scenario(r)
	r.finish()
	return r
}

// reference returns the records and engine steps of the stepped, plain,
// fresh run.
func (tc *equivCase) reference(t *testing.T) ([]string, int64) {
	tc.once.Do(func() {
		r := tc.run(t, shortcuts{}, nil)
		tc.want, tc.steps = r.got, r.steps
	})
	return tc.want, tc.steps
}

// check runs the scenario under mode, reports where it diverges from the
// reference, and returns its engine steps.
func (tc *equivCase) check(t *testing.T, mode shortcuts) int64 {
	t.Helper()
	want, _ := tc.reference(t)
	r := tc.run(t, mode, want)
	if r.diff != "" {
		t.Errorf("%v: %s", mode, r.diff)
	} else if r.n != len(want) {
		t.Errorf("%v: %d records, reference %d", mode, r.n, len(want))
	}
	return r.steps
}

// eachCase runs fn on every scenario as a parallel subtest.
func eachCase(t *testing.T, fn func(t *testing.T, tc *equivCase)) {
	for _, tc := range equivCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fn(t, tc)
		})
	}
}

// TestSteadyQuantaMatchStepped: replaying the recorded quanta of
// Stationary workloads must match stepping every quantum bit for bit, and
// fire the same engine ticks.
func TestSteadyQuantaMatchStepped(t *testing.T) {
	eachCase(t, func(t *testing.T, tc *equivCase) {
		_, steps := tc.reference(t)
		if got := tc.check(t, shortcuts{steady: true}); got != steps {
			t.Errorf("steady replay fired %d engine ticks, stepped %d", got, steps)
		}
	})
}

// TestResetReplaysNew is the pooling contract: a dirtied machine Reset
// through Pool.Get must match New at the same seed bit for bit, machine
// random streams and engine ticks included.
func TestResetReplaysNew(t *testing.T) {
	eachCase(t, func(t *testing.T, tc *equivCase) {
		_, steps := tc.reference(t)
		if got := tc.check(t, shortcuts{pooled: true}); got != steps {
			t.Errorf("pooled machine fired %d engine ticks, fresh %d", got, steps)
		}
	})
}

// TestEquivMachine runs every scenario under the remaining combinations of
// skip-ahead, steady replay and pooling: skip-ahead alone and every
// combination of two or three. With the two tests above, each scenario
// runs under all 8 and every record must match the reference. Runs with
// the same skip setting must fire the same engine ticks, and skip-ahead
// must fire fewer exactly when the scenario leaves the machine with
// nothing runnable.
func TestEquivMachine(t *testing.T) {
	eachCase(t, func(t *testing.T, tc *equivCase) {
		_, stepped := tc.reference(t)
		skipped := tc.check(t, shortcuts{skip: true})
		if tc.idles && skipped >= stepped || !tc.idles && skipped != stepped {
			t.Errorf("skip-ahead fired %d ticks, stepped %d (scenario idles: %v)", skipped, stepped, tc.idles)
		}
		for _, mode := range []shortcuts{
			{skip: true, steady: true},
			{skip: true, pooled: true},
			{steady: true, pooled: true},
			{skip: true, steady: true, pooled: true},
		} {
			want := stepped
			if mode.skip {
				want = skipped
			}
			if got := tc.check(t, mode); got != want {
				t.Errorf("%v: %d engine steps, %d with skip=%v alone", mode, got, want, mode.skip)
			}
		}
	})
}

// counted is the traffic loop counting its Step calls.
type counted struct {
	workload.Traffic
	steps int
}

func (w *counted) Step(ctx *system.Ctx) system.Activity {
	w.steps++
	return w.Traffic.Step(ctx)
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

// TestPoolRecyclesDeterministically checks Pool's bookkeeping: Get on an
// empty pool builds, Put then Get recycles, an incompatible config is
// never served by a recycled machine, and a nil pool degrades to plain
// construction. That a recycled machine behaves exactly like a fresh one
// is TestResetReplaysNew and the pooled runs of TestEquivMachine.
func TestPoolRecyclesDeterministically(t *testing.T) {
	cfg := system.DefaultConfig()
	cfg.Seed = 0x2222
	pool := &system.Pool{}
	first := pool.Get(cfg)
	pool.Put(first)
	if pool.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", pool.Size())
	}
	second := pool.Get(cfg)
	if second != first {
		t.Error("pool built a fresh machine instead of recycling")
	}

	// An incompatible config must not be served by the recycled machine.
	pool.Put(second)
	other := cfg
	other.Quantum = cfg.Quantum * 2
	other.UFS.Epoch = cfg.UFS.Epoch * 2
	if m := pool.Get(other); m == second {
		t.Error("pool recycled a machine across incompatible configs")
	}

	var nilPool *system.Pool
	if m := nilPool.Get(cfg); m == nil {
		t.Error("nil pool Get returned nil")
	}
	nilPool.Put(nil) // must not panic
}
