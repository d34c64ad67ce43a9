// Package bench is the performance-regression harness behind `ufsim
// bench` and scripts/bench.sh. It runs a registry of micro-benchmarks
// covering the simulator's hot paths — engine dispatch, mesh hop
// accounting, cache accesses, whole quanta and epochs, and full quick
// experiment trials — through testing.Benchmark, normalizes the results
// (ns/op, B/op, allocs/op, trials/sec), and enforces the zero-allocation
// contract: tagged cases fail the run if their steady state allocates.
//
// The registry intentionally duplicates the shapes of the per-package
// benchmarks in *_test.go files (which `go test -bench` runs): test
// functions cannot be invoked from a shipped binary, and the binary-side
// registry is what CI gates on without compiling test packages.
package bench

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweepd"
	"repro/internal/system"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Case is one registered micro-benchmark.
type Case struct {
	// Name identifies the case in reports; stable across runs so
	// BENCH_*.json files diff cleanly.
	Name string
	// ZeroAlloc tags a case whose steady state must not allocate: Run
	// reports an error when it measures a nonzero allocs/op.
	ZeroAlloc bool
	// Trial marks a whole-experiment case whose throughput is also
	// reported as trials/sec.
	Trial bool
	// Long excludes the case from short runs (the CI gate), which only
	// need the allocation contract, not the multi-second trials.
	Long bool
	// Fn is the benchmark body; it must call b.ReportAllocs so the
	// allocation columns are populated.
	Fn func(b *testing.B)
}

// Result is one case's normalized measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// TrialsPerSec is 1e9/NsPerOp for Trial cases, 0 otherwise.
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	// ZeroAlloc records whether the case was gated.
	ZeroAlloc bool `json:"zero_alloc,omitempty"`
	// Source is "bench" for registry cases and "go test" for results
	// merged from a parsed `go test -bench` run.
	Source string `json:"source,omitempty"`
	// Extra carries the case's custom b.ReportMetric values (e.g.
	// sweepd-complete-batched's completion round trips per unit).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_<date>.json document.
type Report struct {
	// Date is the run date (YYYY-MM-DD), supplied by the caller.
	Date string `json:"date"`
	// Short records whether long cases were skipped.
	Short bool `json:"short"`
	// Results holds every measurement, registry cases first.
	Results []Result `json:"results"`
}

// Config tunes a Run.
type Config struct {
	// Short skips Long cases.
	Short bool
	// Log, when non-nil, receives one progress line per case.
	Log io.Writer
}

// Cases returns the benchmark registry in run order.
func Cases() []Case {
	return []Case{
		{Name: "engine-dispatch", ZeroAlloc: true, Fn: benchEngineDispatch},
		{Name: "mesh-add-traffic", ZeroAlloc: true, Fn: benchMeshAddTraffic},
		{Name: "mesh-contention", ZeroAlloc: true, Fn: benchMeshContention},
		{Name: "mesh-transact", ZeroAlloc: true, Fn: benchMeshTransact},
		{Name: "cache-l1-hit", ZeroAlloc: true, Fn: benchCacheL1Hit},
		{Name: "cache-llc-hit", ZeroAlloc: true, Fn: benchCacheLLCHit},
		{Name: "cache-flush", ZeroAlloc: true, Fn: benchCacheFlush},
		{Name: "machine-quantum", ZeroAlloc: true, Fn: benchMachineQuantum},
		{Name: "machine-epoch", ZeroAlloc: true, Fn: benchMachineEpoch},
		{Name: "machine-epoch-idle", ZeroAlloc: true, Fn: benchMachineEpochIdle},
		{Name: "machine-epoch-idle-stepped", ZeroAlloc: true, Fn: benchMachineEpochIdleStepped},
		{Name: "machine-reset", ZeroAlloc: true, Fn: benchMachineReset},
		{Name: "trial-sync-quick", Trial: true, Long: true, Fn: benchTrialSync},
		{Name: "trial-settle-quick", Trial: true, Long: true, Fn: benchTrialSettle},
		{Name: "trial-rel-quick", Trial: true, Long: true, Fn: benchTrialRel},
		{Name: "sweepd-loopback", Long: true, Fn: benchSweepdLoopback},
		{Name: "sweepd-complete-batched", Long: true, Fn: benchSweepdCompleteBatched},
		{Name: "sweepd-journal-append-512", Long: true, Fn: benchSweepdJournalAppend},
	}
}

// Run executes the registry and returns the normalized report (dated by
// the caller). The returned error aggregates zero-allocation violations;
// the report is valid even when err != nil, so callers can persist the
// failing numbers.
func Run(cfg Config) (Report, error) {
	var rep Report
	rep.Short = cfg.Short
	var violations []string
	for _, c := range Cases() {
		if cfg.Short && c.Long {
			continue
		}
		start := time.Now()
		res := testing.Benchmark(c.Fn)
		r := normalize(c, res)
		rep.Results = append(rep.Results, r)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "bench: %-18s %12.1f ns/op %6d B/op %4d allocs/op (%.1fs)\n",
				c.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, time.Since(start).Seconds())
		}
		if c.ZeroAlloc && r.AllocsPerOp > 0 {
			violations = append(violations,
				fmt.Sprintf("%s: %d allocs/op (must be 0)", c.Name, r.AllocsPerOp))
		}
	}
	if len(violations) > 0 {
		return rep, fmt.Errorf("bench: zero-alloc contract violated: %v", violations)
	}
	return rep, nil
}

// normalize converts a testing.BenchmarkResult into a Result row.
func normalize(c Case, res testing.BenchmarkResult) Result {
	r := Result{
		Name:        c.Name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		ZeroAlloc:   c.ZeroAlloc,
		Source:      "bench",
	}
	if c.Trial && r.NsPerOp > 0 {
		r.TrialsPerSec = 1e9 / r.NsPerOp
	}
	if len(res.Extra) > 0 {
		r.Extra = make(map[string]float64, len(res.Extra))
		for k, v := range res.Extra {
			r.Extra[k] = v
		}
	}
	return r
}

// --- case bodies -------------------------------------------------------

// benchEngineDispatch times one engine instant with the machine's ticker
// population shape: many same-period threads plus a slower governor.
func benchEngineDispatch(b *testing.B) {
	e := sim.NewEngine()
	period := 200 * sim.Microsecond
	for i := 0; i < 16; i++ {
		e.Add(&sim.Ticker{Name: "thread", Period: period, Fn: func(sim.Time) {}})
	}
	e.Add(&sim.Ticker{Name: "epoch", Period: 50 * period, Priority: 10, Fn: func(sim.Time) {}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(period)
	}
}

func benchMesh() (*mesh.Mesh, topo.Coord, topo.Coord) {
	die := topo.XeonGold6142Socket0
	m := mesh.New(die, mesh.KindMesh, mesh.DefaultParams())
	return m, die.CoreCoord(0), die.SliceCoord(die.NumSlices() - 1)
}

func benchMeshAddTraffic(b *testing.B) {
	m, src, dst := benchMesh()
	m.BeginQuantum(200*sim.Microsecond, sim.Freq(24))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddTraffic(0, src, dst, 1)
	}
}

func benchMeshContention(b *testing.B) {
	m, src, dst := benchMesh()
	m.BeginQuantum(200*sim.Microsecond, sim.Freq(24))
	m.AddTraffic(1, src, dst, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ContentionCycles(0, src, dst)
	}
}

func benchMeshTransact(b *testing.B) {
	m, src, dst := benchMesh()
	m.BeginQuantum(200*sim.Microsecond, sim.Freq(24))
	m.AddTraffic(1, src, dst, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transact(0, src, dst)
	}
}

func benchCacheL1Hit(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultGeometry(16))
	cc := h.NewCore()
	line := cache.Line(1 << 20)
	cc.Access(0, line)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Access(0, line)
	}
}

// benchCacheLLCHit rotates over more same-L2-set lines than the L2
// holds — the paper's eviction-list pattern, and the steady-state load of
// the sender and receiver loops.
func benchCacheLLCHit(b *testing.B) {
	geom := cache.DefaultGeometry(16)
	h := cache.NewHierarchy(geom)
	cc := h.NewCore()
	lines := make([]cache.Line, geom.L2Ways+4)
	for i := range lines {
		lines[i] = cache.Line(1<<20 | 5 | i*geom.L2Sets)
	}
	for r := 0; r < 2; r++ {
		for _, l := range lines {
			cc.Access(0, l)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Access(0, lines[i%len(lines)])
	}
}

func benchCacheFlush(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultGeometry(16))
	cc := h.NewCore()
	line := cache.Line(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Access(0, line)
		h.Flush(line)
	}
}

// busyMachine builds the mixed-load machine the machine-level cases
// advance: traffic threads, a stalling thread, and a measurement probe.
func busyMachine(b *testing.B) *system.Machine {
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
		b.Fatal(err)
	}
	m.Spawn("bench-probe", 0, 9, 0, &workload.Measure{Lines: lines, PerQuantum: 20})
	return m
}

func benchMachineQuantum(b *testing.B) {
	m := busyMachine(b)
	q := m.Config().Quantum
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(q)
	}
}

func benchMachineEpoch(b *testing.B) {
	m := busyMachine(b)
	e := m.Config().UFS.Epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(e)
	}
}

// benchMachineEpochIdle advances an inert machine by one governor epoch:
// the quantum ticker de-arms after the first empty quantum and the engine
// jumps straight between epoch deadlines, so the cost is one governor
// decision per epoch rather than 50 quantum walks. The -stepped partner
// below is the same machine with skip-ahead disabled; their ratio is the
// idle-elision win the skip-ahead tentpole claims (≥5×).
func benchMachineEpochIdle(b *testing.B)        { benchIdleEpoch(b, true) }
func benchMachineEpochIdleStepped(b *testing.B) { benchIdleEpoch(b, false) }

func benchIdleEpoch(b *testing.B, skip bool) {
	m := system.New(system.DefaultConfig())
	m.SetSkipAhead(skip)
	e := m.Config().UFS.Epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(e)
	}
}

// benchMachineReset times the pool's recycling step: Machine.Reset of a
// machine whose probe thread walked one eviction list since its last
// reset, the cost a pooled settle-dominated trial pays in Pool.Get.
// Reset drops the thread, so each iteration replays the 20-line walk
// through the thread's private caches, which Reset keeps attached. The
// cold walk stays on the clock (pausing the timer around it costs far
// more than the walk), so ns/op is walk plus reset; the reset's own share
// is reported as reset-ns/op.
func benchMachineReset(b *testing.B) {
	m := system.New(system.DefaultConfig())
	slice, _ := m.Socket(0).Die.SliceAtHops(9, 0)
	lines, err := memsys.EvictionList(m.Socket(0).Hier, 0, memsys.NewAllocator(), 10, slice, 20)
	if err != nil {
		b.Fatal(err)
	}
	probe := m.Spawn("bench-probe", 0, 9, 0, &workload.Measure{Lines: lines})
	m.Run(m.Config().Quantum)
	seed := m.Config().Seed
	var reset time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		m.Reset(seed)
		reset += time.Since(start)
		for _, l := range lines {
			probe.Caches.Access(0, l)
		}
	}
	b.ReportMetric(float64(reset.Nanoseconds())/float64(b.N), "reset-ns/op")
}

// benchTrial runs one quick experiment trial per iteration; trials/sec
// over these cases is the harness's headline throughput number. Trials
// share a machine pool, as the runner's sweep workers do, so the numbers
// reflect the steady state of a long sweep rather than cold-start builds.
func benchTrial(b *testing.B, id string) {
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	pool := &system.Pool{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Options{Seed: 0x5eed + uint64(i), Quick: true, Machines: pool}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTrialSync(b *testing.B) { benchTrial(b, "sync") }
func benchTrialRel(b *testing.B)  { benchTrial(b, "rel") }

// benchTrialSettle times the settle-dominated trial shape of the
// platform-characterization experiments (fig3/fig4 grid cells): a pooled
// machine idles through a 1.2 s settle window, then a 400 ms sampled
// window yields the median uncore frequency. Under skip-ahead the settle
// collapses to governor epochs — this is the trials/sec number the
// quantum-elision change is accountable for.
func benchTrialSettle(b *testing.B) {
	pool := &system.Pool{}
	cfg := system.DefaultConfig()
	var srt stats.Sorter
	var median float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = 0x5eed + uint64(i)
		m := pool.Get(cfg)
		m.Run(1200 * sim.Millisecond)
		srt.Reset()
		m.Engine().Add(&sim.Ticker{
			Name:     "sample-median",
			Period:   sim.Millisecond,
			Priority: 100,
			Fn:       func(sim.Time) { srt.Add(m.Socket(0).Uncore().GHz()) },
		})
		m.Run(400 * sim.Millisecond)
		median = srt.Median()
		pool.Put(m)
	}
	_ = median
}

// benchSweepdLoopback load-tests the distributed-sweep coordination
// path: one op is a whole 64-unit sweep pushed through the coordinator
// by four loopback workers with trivial unit bodies, so the number is
// pure protocol overhead — the in-process HTTP/JSON round trips, lease
// grants, heartbeat bookkeeping, completion merges, and state
// transitions — not experiment time.
func benchSweepdLoopback(b *testing.B) { benchSweepdFleet(b, false) }

// benchSweepdCompleteBatched is the same sweep with batched completion
// delivery: each lease round's outcomes ship as one CompleteBatch
// (one coordinator lock acquisition, one group-committed persist)
// instead of one Complete per unit. The delta against sweepd-loopback
// is what completion pipelining saves in coordinator round trips per
// completed unit.
func benchSweepdCompleteBatched(b *testing.B) { benchSweepdFleet(b, true) }

func benchSweepdFleet(b *testing.B, batch bool) {
	units := make([]sweepd.Unit, 64)
	for i := range units {
		units[i] = sweepd.Unit{
			ID: sweepd.UnitID(fmt.Sprintf("u%03d", i)), Experiment: "bench",
			Seed: uint64(i), Quick: true,
		}
	}
	run := func(ctx context.Context, u sweepd.Unit, progress func(string)) sweepd.UnitResult {
		progress("tick")
		return sweepd.UnitResult{OK: true, Result: "ok"}
	}
	var completeRPCs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sweepd.NewCoordinator(sweepd.CoordinatorConfig{}, units)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sweepd.FleetConfig{
			Workers: 4, Jobs: 4,
			NewRunner:      func(string) sweepd.UnitRunner { return run },
			BatchCompletes: batch,
			PollMax:        10 * time.Millisecond,
		}
		var gate *sweepd.Gate
		if batch {
			// A wide-open gate (nothing queues, nothing sheds) rides along
			// purely as the RPC counter: it fronts the coordinator's
			// handler, so its complete-endpoint admissions are exactly the
			// completion round trips the server received. The unbatched
			// case is 1/unit by construction, so the reported metric
			// below is the pipelining win.
			gate = sweepd.NewGate(sweepd.GateConfig{
				Default: sweepd.GateLimits{Inflight: 4096, Queue: 4096, QueueWait: time.Minute},
			})
			cfg.Gate = gate
		}
		sweepd.RunFleet(context.Background(), c, cfg)
		select {
		case <-c.Done():
		default:
			b.Fatal("sweep incomplete")
		}
		if gate != nil {
			completeRPCs += gate.Stats().Endpoints[sweepd.EndpointComplete].Admitted
		}
	}
	if batch {
		b.ReportMetric(float64(completeRPCs)/float64(b.N*len(units)), "complete-rpc/unit")
	}
}

// benchSweepdJournalAppend times one persisted unit transition — lease
// plus completion merge, one framed journal record — on a 512-unit
// coordinator backed by the in-memory crash-model filesystem (so the
// number is serialization and protocol, not platter latency).
func benchSweepdJournalAppend(b *testing.B) {
	units := make([]sweepd.Unit, 512)
	for i := range units {
		units[i] = sweepd.Unit{
			ID: sweepd.UnitID(fmt.Sprintf("u%03d", i)), Experiment: "bench",
			Seed: uint64(i), Quick: true,
		}
	}
	newCoord := func() *sweepd.Coordinator {
		c, err := sweepd.NewCoordinator(sweepd.CoordinatorConfig{
			Clock:    sweepd.NewManualClock(time.Unix(0, 0)),
			LeaseTTL: time.Hour,
			StateDir: "state",
			FS:       faults.NewDiskFS(1),
			// Never compact mid-run: measure the pure append path
			// (compaction cost amortizes to ~zero at this cadence
			// anyway).
			SnapshotEvery: 1 << 30,
		}, units)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	c, idx := newCoord(), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx == len(units)-1 {
			// Grid nearly exhausted: rebuild off the clock, leaving the
			// last unit pending so the end-of-sweep manifest write never
			// pollutes the per-transition number.
			b.StopTimer()
			c, idx = newCoord(), 0
			b.StartTimer()
		}
		resp := c.Lease(sweepd.LeaseRequest{Worker: "bench", Max: 1})
		if len(resp.Units) != 1 {
			b.Fatalf("lease refused at unit %d: %+v", idx, resp)
		}
		lu := resp.Units[0]
		c.Complete(sweepd.CompleteRequest{Worker: "bench", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true})
		idx++
	}
}
