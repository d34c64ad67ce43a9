// Package system composes the substrates into the paper's evaluation
// platform (Table 1): a dual-socket machine of two 16-core Skylake-SP
// processors, each with private L1/L2s, a sliced non-inclusive LLC spread
// over a mesh interconnect, an MSR file, and a UFS governor.
//
// Execution is quantised: every quantum (default 200 µs, the paper's trace
// sampling period) each running thread's workload advances and reports the
// activity it generated; every governor epoch (10 ms) the accumulated
// activity feeds each socket's UFS decision. Fine-grained operations — the
// receiver's timed LLC loads, clflush, transactional regions — run inside
// the quantum through a Ctx, against the functional cache hierarchy and
// the latency model.
package system

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mesh"
	"repro/internal/msr"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/topo"
	"repro/internal/ufs"
)

// Config assembles a machine. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Dies lists one floorplan per socket.
	Dies []*topo.Die
	// Interconnect selects mesh or ring.
	Interconnect mesh.Kind
	// MeshParams are the interconnect model constants.
	MeshParams mesh.Params
	// UFS are the governor constants.
	UFS ufs.Params
	// Timing is the latency model.
	Timing timing.Params
	// Quantum is the workload stepping period.
	Quantum sim.Time
	// CoreFreq is the operating core frequency (powersave keeps it at
	// base; setting it above base disables UFS, §2.2.1).
	CoreFreq sim.Freq
	// CoreBase is the base frequency.
	CoreBase sim.Freq
	// DVFS optionally enables per-core frequency scaling: with
	// PolicyPowersave busy cores run at base and idle cores park low
	// (the Table 1 platform); with PolicyPerformance active cores
	// enter the turbo range, which disables UFS (§2.2.1). PolicyNone
	// pins every core at CoreFreq.
	DVFS cpu.DVFS
	// Seed fixes all randomness.
	Seed uint64
}

// DefaultConfig returns the Table 1 platform: two Xeon Gold 6142 sockets,
// mesh interconnect, powersave cores at 2.6 GHz, UFS over 1.2–2.4 GHz.
func DefaultConfig() Config {
	return Config{
		Dies:         []*topo.Die{topo.XeonGold6142Socket0, topo.XeonGold6142Socket1},
		Interconnect: mesh.KindMesh,
		MeshParams:   mesh.DefaultParams(),
		UFS:          ufs.DefaultParams(),
		Timing:       timing.Default(),
		Quantum:      200 * sim.Microsecond,
		CoreFreq:     sim.CoreBase,
		CoreBase:     sim.CoreBase,
		Seed:         0x5eed,
	}
}

// Activity is what one thread's workload did during one quantum.
type Activity struct {
	// Active marks the core as awake (C0) for the quantum.
	Active bool
	// Cycles and StallCycles feed the perf counters and the governor's
	// stall rule.
	Cycles, StallCycles float64
	// LLCAccesses is the number of transactions that travelled to the
	// LLC this quantum.
	LLCAccesses float64
	// Pressure is Σ accesses × DistanceWeight(hops).
	Pressure float64
	// PowerUnits is the quantum's draw on the socket's shared voltage
	// regulator, in arbitrary units (1.0 ≈ a scalar compute loop).
	// The IccCoresCovert baseline channel modulates and observes it.
	PowerUnits float64
}

// Add accumulates o into a.
func (a *Activity) Add(o Activity) {
	a.Active = a.Active || o.Active
	a.Cycles += o.Cycles
	a.StallCycles += o.StallCycles
	a.LLCAccesses += o.LLCAccesses
	a.Pressure += o.Pressure
	a.PowerUnits += o.PowerUnits
}

// Workload is a program running on a core. Step is called once per
// quantum; the workload performs fine-grained operations through ctx
// and/or reports aggregate activity, returning the quantum's total.
type Workload interface {
	Step(ctx *Ctx) Activity
}

// Stationary marks a Workload whose Step is a pure function of the core
// frequency, the uncore frequency and its quantum budget (Quantum and
// Remaining): it reads no time, draws no random number and touches no
// cache state. The machine records one unpreempted quantum's Activity and
// InjectTraffic calls and replays the record, without calling Step, while
// both frequencies hold; a preempted quantum is always stepped (see
// DESIGN.md "Steady quanta"). A marked workload's fields must not change
// while it runs, since a replay would not see the change: swap in a new
// workload with SetWorkload instead. A Step that does load, flush or draw
// from the thread's stream is detected and simply not recorded.
type Stationary interface {
	Workload
	Stationary()
}

// WorkloadFunc adapts a function to the Workload interface.
type WorkloadFunc func(ctx *Ctx) Activity

// Step implements Workload.
func (f WorkloadFunc) Step(ctx *Ctx) Activity { return f(ctx) }

// Socket is one processor package.
type Socket struct {
	ID    int
	Die   *topo.Die
	Cores []*cpu.Core
	Hier  *cache.Hierarchy
	Mesh  *mesh.Mesh
	MSR   *msr.File
	Gov   *ufs.Governor

	coreCaches []*cache.CoreCaches

	// govRng is the governor's random stream, reseeded in place by Reset.
	govRng *sim.Rand

	// Epoch accumulators consumed by the governor.
	epochLLC      float64
	epochPressure float64

	// quantumPower is the current draw registered so far this quantum.
	quantumPower float64

	// busy is the per-quantum active-core scratch, indexed by core ID and
	// cleared at the top of every quantum; peerFreqs is the reused backing
	// array for EpochStats.PeerFreqs (the governor only reads it during
	// Tick). Both exist so the per-quantum and per-epoch paths allocate
	// nothing in steady state.
	busy      []bool
	peerFreqs []sim.Freq
}

// QuantumPower returns the power units drawn on the socket's voltage
// regulator so far in the current quantum. Threads that step after the
// drawer (spawn order) observe it — the shared-PMU contention the
// IccCoresCovert baseline exploits.
func (s *Socket) QuantumPower() float64 { return s.quantumPower }

// Uncore returns the socket's current uncore frequency.
func (s *Socket) Uncore() sim.Freq { return s.Gov.Current() }

// Faults is the machine-level fault hook (implemented by
// internal/faults): the scheduler consults it for OS-preemption gaps at
// the top of each thread's quantum, and TimedAccess consults it for
// lost measurement samples. Implementations must be deterministic —
// they are part of the seed-reproducible simulation.
type Faults interface {
	// PreemptGap returns how much of the thread's quantum the OS stole
	// (an involuntary context switch); it is consulted once per live
	// thread per quantum and clamped to the quantum length.
	PreemptGap(thread string, now sim.Time) sim.Time
	// DropSample reports whether a timed load's measurement is lost
	// (e.g. an interrupt landed inside the rdtscp bracket).
	DropSample(thread string, now sim.Time) bool
}

// Machine is the whole platform.
type Machine struct {
	cfg     Config
	engine  *sim.Engine
	rng     *sim.Rand
	sockets []*Socket
	threads []*Thread
	faults  Faults

	// quantumTick and epochTick are the machine's two schedule entries,
	// held by value so Reset can re-register the identical tickers (same
	// order, same priorities) on the cleared engine.
	quantumTick sim.Ticker
	epochTick   sim.Ticker

	// skipAhead enables quantum elision: when a quantum finds no runnable
	// thread, the quantum ticker is paused and the engine jumps straight
	// between the remaining deadlines (governor epochs, samplers) until a
	// Spawn or SetWorkload re-arms it. idleDoneAt is the instant through
	// which per-core idle bookkeeping has been applied while de-armed;
	// catchUpIdle batches the elided quanta's RecordIdle calls from there.
	skipAhead  bool
	idleDoneAt sim.Time
}

// SetFaults installs (or, with nil, removes) the machine-level fault
// hook. The hook applies to every thread; the aggregate loop models only
// feel preemption through their fine-grained budget, so in practice it
// perturbs the measurement path.
func (m *Machine) SetFaults(f Faults) { m.faults = f }

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if len(cfg.Dies) == 0 {
		panic("system: machine needs at least one socket")
	}
	if cfg.Quantum <= 0 || cfg.UFS.Epoch <= 0 {
		panic("system: quantum and epoch must be positive")
	}
	if cfg.UFS.Epoch%cfg.Quantum != 0 {
		panic(fmt.Sprintf("system: epoch %v must be a multiple of quantum %v", cfg.UFS.Epoch, cfg.Quantum))
	}
	m := &Machine{
		cfg:       cfg,
		engine:    sim.NewEngine(),
		rng:       sim.NewRand(cfg.Seed),
		skipAhead: true,
	}
	for i, die := range cfg.Dies {
		s := &Socket{
			ID:   i,
			Die:  die,
			Hier: cache.NewHierarchy(cache.DefaultGeometry(die.NumSlices())),
			Mesh: mesh.New(die, cfg.Interconnect, cfg.MeshParams),
			MSR:  msr.NewFile(),
		}
		s.govRng = m.rng.Split(uint64(1000 + i))
		s.Gov = ufs.NewGovernor(cfg.UFS, s.MSR, s.govRng)
		for c := 0; c < die.NumCores(); c++ {
			core := cpu.NewCore(c, die.CoreCoord(c), cfg.CoreBase)
			core.Freq = cfg.CoreFreq
			s.Cores = append(s.Cores, core)
			s.coreCaches = append(s.coreCaches, s.Hier.NewCore())
		}
		s.busy = make([]bool, len(s.Cores))
		s.peerFreqs = make([]sim.Freq, 0, len(cfg.Dies)-1)
		m.sockets = append(m.sockets, s)
	}
	// The per-quantum workload step runs before anything else at a
	// shared instant; governors run last so an epoch decision sees all
	// of its quanta.
	m.quantumTick = sim.Ticker{
		Name:     "quantum",
		Period:   cfg.Quantum,
		Priority: 0,
		Fn:       m.stepQuantum,
	}
	m.epochTick = sim.Ticker{
		Name:     "ufs-epoch",
		Period:   cfg.UFS.Epoch,
		Priority: 10,
		Fn:       m.stepEpoch,
	}
	m.engine.Add(&m.quantumTick)
	m.engine.Add(&m.epochTick)
	return m
}

// Reset restores the machine to the cold state New(cfg) builds, with the
// seed replaced, reusing every allocated structure in place: the engine
// restarts at time zero with only the quantum and epoch tickers (extra
// samplers registered through Engine() are dropped), all threads are
// removed, caches and mesh load return to cold state, MSR files to their
// power-on defaults, governors to the idle operating point with freshly
// split random streams, and the fault hook is cleared. Caches clear only
// the sets written since the last reset, and the random streams are
// reseeded in place, so a reset allocates nothing. The streams are
// re-derived in New's exact consumption order, so a reset machine is
// bit-for-bit indistinguishable from a freshly constructed one — the
// contract the trial pool and the determinism tests rely on.
//
// A bound context or step budget does not survive Reset; callers that
// supervise the machine must re-Bind.
func (m *Machine) Reset(seed uint64) {
	m.cfg.Seed = seed
	m.engine.Reset()
	m.rng.Reseed(seed)
	m.faults = nil
	for i := range m.threads {
		m.threads[i] = nil
	}
	m.threads = m.threads[:0]
	for i, s := range m.sockets {
		s.Hier.Reset()
		s.Mesh.Reset()
		s.MSR.Reset()
		// The governor split replays New's per-socket rng consumption; the
		// MSR reset above must precede it so the initial operating point
		// clamps against the default ratio limit, as in NewGovernor.
		s.Gov.Reset(m.rng.SplitInto(s.govRng, uint64(1000+i)))
		for _, c := range s.Cores {
			c.Reset()
			c.Freq = m.cfg.CoreFreq
		}
		clear(s.busy)
		s.peerFreqs = s.peerFreqs[:0]
		s.epochLLC, s.epochPressure = 0, 0
		s.quantumPower = 0
	}
	m.engine.Add(&m.quantumTick)
	m.engine.Add(&m.epochTick)
	m.idleDoneAt = 0
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Engine exposes the tick engine so callers can register samplers.
func (m *Machine) Engine() *sim.Engine { return m.engine }

// Now returns the current virtual time.
func (m *Machine) Now() sim.Time { return m.engine.Now() }

// Rand derives a labelled random stream from the machine seed.
func (m *Machine) Rand(label uint64) *sim.Rand { return m.rng.Split(label) }

// Sockets returns the machine's sockets.
func (m *Machine) Sockets() []*Socket { return m.sockets }

// Socket returns socket i.
func (m *Machine) Socket(i int) *Socket { return m.sockets[i] }

// Run advances virtual time by d. If the machine has a bound context
// that is cancelled mid-run, or its step budget trips, Run panics with a
// sim.Abort (see Bind).
func (m *Machine) Run(d sim.Time) {
	m.engine.Run(d)
	// Callers inspect platform state (C-states, wake latency inputs)
	// between runs; bring the elided idle bookkeeping up to date first.
	m.catchUpIdle(m.engine.Now())
}

// SetSkipAhead toggles quantum elision (on by default). With it off the
// machine steps every quantum even when nothing is runnable — the
// pre-skip-ahead behaviour, kept for benchmarking the win and for
// debugging. Both modes are bit-identical in every observable; only the
// engine's fired-tick count differs. The setting survives Reset.
func (m *Machine) SetSkipAhead(on bool) {
	m.skipAhead = on
	if !on {
		m.rearmQuantum()
	}
}

// QuantumArmed reports whether the per-quantum ticker is currently
// scheduled; false means the machine is provably inert and the engine is
// skipping between epoch/sampler deadlines.
func (m *Machine) QuantumArmed() bool { return !m.quantumTick.Paused() }

// anyRunnable reports whether any thread can generate activity in a
// quantum: live and armed with a workload. Workloads that merely report
// inactive quanta still count — only Stop or a nil workload makes a
// thread inert.
func (m *Machine) anyRunnable() bool {
	for _, t := range m.threads {
		if !t.stopped && t.w != nil {
			return true
		}
	}
	return false
}

// rearmQuantum resumes the quantum ticker after an elided idle stretch,
// first applying the batched idle bookkeeping for the quanta that were
// skipped. The ticker resumes on its original grid, so post-wake quanta
// stay aligned to multiples of cfg.Quantum and the inTail/epoch phase
// arithmetic is unchanged.
func (m *Machine) rearmQuantum() {
	if !m.quantumTick.Paused() {
		return
	}
	m.catchUpIdle(m.engine.Now())
	m.engine.Resume(&m.quantumTick)
}

// catchUpIdle applies the per-core idle accounting an elided stretch
// would have accumulated quantum-by-quantum, in one batched span per
// core. It advances through the last quantum boundary at or before now:
// a boundary tick at exactly `now` has already fired in stepped mode
// before any external observer runs, so inclusive alignment reproduces
// stepped state exactly. No-op while the quantum ticker is armed.
func (m *Machine) catchUpIdle(now sim.Time) {
	if !m.quantumTick.Paused() {
		return
	}
	to := now - now%m.cfg.Quantum
	if to <= m.idleDoneAt {
		return
	}
	d := to - m.idleDoneAt
	for _, s := range m.sockets {
		for _, c := range s.Cores {
			c.RecordIdleSpan(d)
		}
	}
	m.idleDoneAt = to
}

// Bind installs a context consulted by Run, so a supervisor can cut
// short simulation code that advances the machine through error-free
// interfaces. See sim.Engine.Bind for the abort contract.
func (m *Machine) Bind(ctx context.Context) { m.engine.Bind(ctx) }

// SetStepBudget arms the engine's step watchdog; see
// sim.Engine.SetStepBudget.
func (m *Machine) SetStepBudget(budget int64) { m.engine.SetStepBudget(budget) }

// Thread is a software thread pinned to a core.
type Thread struct {
	Name    string
	Sock    *Socket
	Core    *cpu.Core
	Caches  *cache.CoreCaches
	Domain  cache.Domain
	m       *Machine
	rng     *sim.Rand
	w       Workload
	drift   timing.Drift
	stopped bool

	// ctx is the thread's reusable quantum context, reset at the top of
	// every stepped quantum; it is valid only for the duration of Step.
	ctx Ctx

	// stationary caches whether w implements Stationary; steady is the
	// last recorded quantum of such a workload.
	stationary bool
	steady     steadyQuantum
}

// maxSteadyInjects bounds the InjectTraffic calls one recorded quantum
// may make; the Listing 1 and 2 loops make one.
const maxSteadyInjects = 2

// steadyQuantum is a Stationary thread's recorded quantum: the inputs it
// was stepped under, its final Activity, and its InjectTraffic calls as
// (destination tile, accesses) pairs. It is fixed-size, so recording and
// replaying allocate nothing.
type steadyQuantum struct {
	valid        bool
	core, uncore sim.Freq
	act          Activity
	n            int
	dst          [maxSteadyInjects]topo.Coord
	accesses     [maxSteadyInjects]float64
}

// setWorkload installs w and drops any recorded quantum of the old one.
func (t *Thread) setWorkload(w Workload) {
	t.w = w
	_, t.stationary = w.(Stationary)
	t.steady.valid = false
}

// SetWorkload replaces the thread's program (e.g. the nop→stalling switch
// of Figure 5). A nil workload idles the core. Arming a workload is a
// wake source: it re-arms the machine's quantum ticker if an idle skip
// had de-armed it.
func (t *Thread) SetWorkload(w Workload) {
	t.setWorkload(w)
	if w != nil && !t.stopped {
		t.m.rearmQuantum()
	}
}

// Stop removes the thread from scheduling permanently.
func (t *Thread) Stop() { t.stopped = true }

// Reap drops stopped threads from the scheduler's list, preserving the
// spawn order of the live ones. Stopped threads are skipped by every
// scheduling decision already, so reaping never changes behaviour — it
// only keeps the thread list (and the per-quantum skip work) from
// growing without bound in sessions that spawn and stop threads per
// transmission.
func (m *Machine) Reap() {
	live := m.threads[:0]
	for _, t := range m.threads {
		if !t.stopped {
			live = append(live, t)
		}
	}
	for i := len(live); i < len(m.threads); i++ {
		m.threads[i] = nil
	}
	m.threads = live
}

// Spawn pins a new thread running w to the given socket and core. Threads
// step in spawn order within a quantum; spawn traffic sources before
// latency probes so that contention is visible to same-quantum probes.
func (m *Machine) Spawn(name string, socket, core int, d cache.Domain, w Workload) *Thread {
	if socket < 0 || socket >= len(m.sockets) {
		panic(fmt.Sprintf("system: no socket %d", socket))
	}
	s := m.sockets[socket]
	if core < 0 || core >= len(s.Cores) {
		panic(fmt.Sprintf("system: socket %d has no core %d", socket, core))
	}
	for _, t := range m.threads {
		if !t.stopped && t.Sock == s && t.Core.ID == core {
			panic(fmt.Sprintf("system: core %d/%d already has thread %q", socket, core, t.Name))
		}
	}
	t := &Thread{
		Name:   name,
		Sock:   s,
		Core:   s.Cores[core],
		Caches: s.coreCaches[core],
		Domain: d,
		m:      m,
		rng:    m.rng.Split(sim.HashString(name)),
	}
	t.setWorkload(w)
	m.threads = append(m.threads, t)
	if w != nil {
		m.rearmQuantum()
	}
	return t
}

// inTail reports whether the quantum ending at now falls inside the
// governor's status-sampling window at the end of the current epoch.
func (m *Machine) inTail(now sim.Time) bool {
	tail := m.cfg.UFS.TailWindow
	if tail <= 0 || tail > m.cfg.UFS.Epoch {
		return true
	}
	phase := now % m.cfg.UFS.Epoch
	return phase == 0 || phase > m.cfg.UFS.Epoch-tail
}

// CoreBusy reports whether a live thread is pinned to the given core.
func (m *Machine) CoreBusy(socket, core int) bool {
	s := m.sockets[socket]
	for _, t := range m.threads {
		if !t.stopped && t.Sock == s && t.Core.ID == core {
			return true
		}
	}
	return false
}

// FreeCore returns the highest-numbered unoccupied core on the socket that
// is not in avoid, or -1 if none is free.
func (m *Machine) FreeCore(socket int, avoid ...int) int {
	s := m.sockets[socket]
next:
	for c := len(s.Cores) - 1; c >= 0; c-- {
		if m.CoreBusy(socket, c) {
			continue
		}
		for _, a := range avoid {
			if c == a {
				continue next
			}
		}
		return c
	}
	return -1
}

// stepQuantum advances every runnable thread by one quantum.
func (m *Machine) stepQuantum(now sim.Time) {
	for _, s := range m.sockets {
		s.Mesh.BeginQuantum(m.cfg.Quantum, s.Gov.Current())
		s.quantumPower = 0
	}
	tail := m.inTail(now)
	for _, s := range m.sockets {
		clear(s.busy)
	}
	for _, t := range m.threads {
		if t.stopped || t.w == nil {
			continue
		}
		var gap sim.Time
		if m.faults != nil {
			gap = min(m.faults.PreemptGap(t.Name, now), m.cfg.Quantum)
		}
		var act Activity
		if sq := &t.steady; sq.valid && gap <= 0 && sq.core == t.Core.Freq && sq.uncore == t.Sock.Gov.Current() {
			// Steady quantum: replay the recorded traffic in today's
			// thread order, so every float sum below sees the same
			// operands in the same order as a stepped quantum.
			for i := 0; i < sq.n; i++ {
				t.Sock.Mesh.AddTraffic(t.Domain, t.Core.Tile, sq.dst[i], sq.accesses[i])
			}
			act = sq.act
		} else {
			act = t.step(now, gap)
		}
		if act.Active {
			t.Sock.busy[t.Core.ID] = true
			t.Core.RecordActive(m.cfg.Quantum, cpu.Counters{
				Cycles:      act.Cycles,
				StallCycles: act.StallCycles,
				LLCAccesses: act.LLCAccesses,
			}, tail)
		}
		if tail {
			t.Sock.epochLLC += act.LLCAccesses
			t.Sock.epochPressure += act.Pressure
		}
		t.Sock.quantumPower += act.PowerUnits
	}
	for _, s := range m.sockets {
		for i, c := range s.Cores {
			if !s.busy[i] {
				c.RecordIdle(m.cfg.Quantum)
			}
		}
	}
	if m.skipAhead && !m.anyRunnable() {
		// Provably inert: nothing can generate activity until a Spawn or
		// SetWorkload (the wake sources) re-arms us. A quantum with no
		// runnable thread contributes no mesh load and no quantum power —
		// both were cleared at the top of this quantum — so the state a
		// sampler observes mid-skip is exactly the stepped-mode state.
		// The epoch ticker stays armed: governor epochs (and their rng
		// draws) must keep firing in order.
		m.idleDoneAt = now
		m.engine.Pause(&m.quantumTick)
	}
}

// step runs the thread's workload for one quantum, of which the OS stole
// gap. A Stationary workload's unpreempted quantum is recorded for replay;
// any other stepped quantum clears the record.
func (t *Thread) step(now, gap sim.Time) Activity {
	m := t.m
	sq := &t.steady
	sq.valid, sq.n = false, 0
	sq.core, sq.uncore = t.Core.Freq, t.Sock.Gov.Current()
	t.ctx = Ctx{
		m:       m,
		t:       t,
		start:   now - m.cfg.Quantum,
		quantum: m.cfg.Quantum,
	}
	ctx := &t.ctx
	if gap > 0 {
		// The stolen slice is gone before the workload runs:
		// fine-grained work sees a shortened quantum.
		ctx.used = gap
	} else {
		ctx.record = t.stationary
	}
	act := t.w.Step(ctx)
	act.Add(ctx.acc)
	if ctx.record {
		sq.valid, sq.act = true, act
	}
	return act
}

// stepEpoch runs every socket's governor with the epoch's accumulated
// activity. Sockets tick in ID order; each sees the others' most recent
// frequency, producing the one-step-behind coupling of §3.4.
func (m *Machine) stepEpoch(now sim.Time) {
	// Under an idle skip the per-quantum RecordIdle calls were elided;
	// apply them in one batch so MinCState (and thus the package C-state
	// decision below) sees the same demotion ladder as stepped mode.
	m.catchUpIdle(now)
	window := m.cfg.UFS.TailWindow
	if window <= 0 || window > m.cfg.UFS.Epoch {
		window = m.cfg.UFS.Epoch
	}
	for _, s := range m.sockets {
		st := ufs.EpochStats{
			CoreFreq:    m.cfg.CoreFreq,
			Window:      window,
			LLCAccesses: s.epochLLC,
			Pressure:    s.epochPressure,
			MinCState:   cpu.C6,
		}
		for _, c := range s.Cores {
			if c.AboveBase() {
				st.AnyCoreAboveBase = true
			}
			if c.CState < st.MinCState {
				st.MinCState = c.CState
			}
			wallCycles := c.Freq.CyclesIn(window)
			if c.Tail.Cycles > 0.25*wallCycles {
				// A core counts as active for the stall-proportion
				// rule only when it is substantially busy in the
				// sampling window; housekeeping blips do not dilute
				// the stalled fraction.
				st.ActiveCores++
				// Stalledness is judged against the sampling
				// window's wall cycles, as the PMU sees it: a loop
				// that only ran for a sliver of the window does not
				// mark the core stalled even if that sliver was.
				if c.Tail.StallCycles/wallCycles > m.cfg.UFS.StallRatioThreshold {
					st.StalledCores++
				}
			}
			// Per-core DVFS: the P-state for the next epoch follows
			// this epoch's utilization (§2.2.1, SpeedShift).
			if m.cfg.DVFS.Policy != cpu.PolicyNone {
				util := c.Epoch.Cycles / c.Freq.CyclesIn(m.cfg.UFS.Epoch)
				if f := m.cfg.DVFS.Next(util); f > 0 {
					c.Freq = f
				}
			}
			c.ResetEpoch()
		}
		st.PeerFreqs = s.peerFreqs[:0]
		for _, o := range m.sockets {
			if o != s {
				st.PeerFreqs = append(st.PeerFreqs, o.Gov.Current())
			}
		}
		s.Gov.Tick(st)
		s.peerFreqs = st.PeerFreqs[:0]
		s.epochLLC, s.epochPressure = 0, 0
	}
}

// PlatformExitLatency is the extra wake time paid when every socket's
// uncore is in a package C-state and the platform has entered its deep
// idle state (memory self-refresh, link retraining). The Uncore-idle
// baseline channel rides on it.
const PlatformExitLatency = 200 * sim.Microsecond

// PlatformIdle reports whether every socket is in a deep package C-state
// (PC2 or deeper); shallow halts do not let the platform power down.
func (m *Machine) PlatformIdle() bool {
	for _, s := range m.sockets {
		if s.Gov.PC() < 2 {
			return false
		}
	}
	return true
}

// WakeLatency models the §2.3 Uncore-idle measurement: the time between a
// NIC packet arriving for a thread on the given socket/core and its
// interrupt service routine running — the core's C-state exit latency,
// the uncore's package C-state exit latency, and the platform deep-idle
// exit when the whole machine had gone quiet.
func (m *Machine) WakeLatency(socket, core int, rng *sim.Rand) sim.Time {
	// The core C-state read below must reflect any elided idle stretch.
	m.catchUpIdle(m.engine.Now())
	s := m.sockets[socket]
	lat := s.Cores[core].CState.ExitLatency() + s.Gov.PC().ExitLatency()
	if m.PlatformIdle() {
		lat += PlatformExitLatency
	}
	// Interrupt delivery jitter.
	return lat + rng.Jitter(2*sim.Microsecond)
}
