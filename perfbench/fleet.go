package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/sweepd"
	"repro/internal/vfs"
)

// sweep-fleet: one completed unit per op. Each round is one sweep of
// fleetUnits units through a coordinator with its default admission
// gate (attached to server and coordinator, as `ufsim serve` does),
// served over HTTP on 127.0.0.1 to two HTTPClient workers running a
// trivial unit body, so protocol and journal cost dominate. An open-loop
// GET /v1/status poller runs beside them at statusHz, each poll timed
// from when it was due.
//
// The journal goes through the vfs seam to faults.DiskFS, the
// repository's in-memory filesystem with a crash model: the benchmark
// may write only inside its checkout, and the shared disk's fsync
// latency there made one run's wall time vary threefold.

const (
	fleetUnits   = 256
	fleetWorkers = 2
	statusHz     = 100
	sweepTimeout = 60 * time.Second
)

func init() {
	register(workload{
		name:      "sweep-fleet",
		setupReps: 5,
		perSecond: 20,
		setup:     setupFleet,
		layers:    fleetLayers,
	})
}

var fleetExperiments = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "sec32", "tab2", "rel"}

// fleetOps generates n sweeps of fleetUnits units from seed; sweep i
// does not depend on n.
func fleetOps(seed uint64, n int) [][]sweepd.Unit {
	rng := rand.New(rand.NewPCG(seed, 0xF1EE7))
	sweeps := make([][]sweepd.Unit, n)
	for i := range sweeps {
		units := make([]sweepd.Unit, fleetUnits)
		for j := range units {
			units[j] = sweepd.Unit{
				ID:         sweepd.UnitID(fmt.Sprintf("u%03d-%08x", j, rng.Uint32())),
				Experiment: fleetExperiments[rng.IntN(len(fleetExperiments))],
				Seed:       rng.Uint64(),
				Quick:      true,
			}
		}
		sweeps[i] = units
	}
	return sweeps
}

// unitOutput is the trivial unit body's result; the sweep check expects
// exactly this text for every unit.
func unitOutput(u sweepd.Unit) string {
	return fmt.Sprintf("%s %s seed=%d\n", u.ID, u.Experiment, u.Seed)
}

func trivialUnit(_ context.Context, u sweepd.Unit, _ func(string)) sweepd.UnitResult {
	return sweepd.UnitResult{OK: true, Result: unitOutput(u), Attempts: 1}
}

type fleetEnv struct {
	client   *http.Client
	poller   *statusPoller
	sweeps   [][]sweepd.Unit
	seq      int
	failures []string
}

func setupFleet(cfg config) (env, error) {
	e := &fleetEnv{
		sweeps: fleetOps(cfg.seed, cfg.rounds),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		poller: startPoller(time.Second / statusHz),
	}
	if r := e.sweep(fleetOps(warmupSeed, 1)[0], nil, 0); r.failed > 0 {
		e.failures = append(e.failures, "warm-up sweep failed")
	}
	return e, nil
}

func (e *fleetEnv) run(i int, tr *tracer) round { return e.sweep(e.sweeps[i], tr, uint64(i+1)) }

func (e *fleetEnv) setupFailures() []string { return e.failures }

func (e *fleetEnv) close() {
	e.poller.stop()
	e.client.CloseIdleConnections()
}

// sweep runs one sweep to completion. Only the sweep itself is timed;
// the exactly-once and fsck checks run after the window closes.
func (e *fleetEnv) sweep(units []sweepd.Unit, tr *tracer, trace uint64) round {
	r := round{attempted: len(units), counts: map[string]float64{}}
	const dir = "sweep"
	disk := faults.NewDiskFS(uint64(e.seq))
	e.seq++
	var fsys vfs.FS = disk
	var cfs *countingFS
	if tr != nil {
		cfs = &countingFS{inner: disk}
		fsys = cfs
	}
	polls := &pollSink{}

	// Each sweep gets its own coordinator and server, as one `ufsim
	// serve` would: a request a cancelled worker left in flight can then
	// never reach the next sweep's coordinator and strand a lease there.
	w := startWindow()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	var c *sweepd.Coordinator
	if err == nil {
		if c, err = sweepd.NewCoordinator(sweepd.CoordinatorConfig{StateDir: dir, FS: fsys}, units); err != nil {
			ln.Close()
		}
	}
	if err != nil {
		w.stop(&r)
		r.failed = len(units)
		fmt.Fprintf(os.Stderr, "perfbench: sweep: %v\n", err)
		return r
	}
	gate := sweepd.NewGate(sweepd.GateConfig{})
	c.AttachGate(gate)
	base := "http://" + ln.Addr().String()
	srv := sweepd.NewHTTPServer(ln.Addr().String(), sweepd.NewServer(c, sweepd.ServerConfig{Gate: gate}), sweepd.HTTPTimeouts{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed once srv.Close runs
	}()
	e.poller.attach(polls, e.client, base+"/v1/status")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workerErrs := make([]error, fleetWorkers)
	for k := 0; k < fleetWorkers; k++ {
		var cl sweepd.Client = &sweepd.HTTPClient{Base: base, HTTP: e.client}
		if tr != nil {
			cl = &tracedClient{inner: cl, tr: tr, trace: trace}
		}
		wk := sweepd.NewWorker(sweepd.WorkerConfig{ID: fmt.Sprintf("w%d", k), Client: cl, Run: trivialUnit, Jobs: 1})
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			workerErrs[k] = wk.Run(ctx)
		}(k)
	}
	aborted := false // the sweep did not end cleanly: its missing units failed
	timeout := time.NewTimer(sweepTimeout)
	select {
	case <-c.Done():
	case <-timeout.C:
		aborted = true
		fmt.Fprintf(os.Stderr, "perfbench: sweep %d timed out\n", e.seq-1)
	}
	timeout.Stop()
	e.poller.attach(nil, nil, "")
	cancel()
	wg.Wait()
	srv.Close()
	<-served
	e.client.CloseIdleConnections()
	closeErr := c.Close()
	w.stop(&r)
	for _, err := range append(workerErrs, closeErr) {
		if err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "perfbench: sweep %d: %v\n", e.seq-1, err)
			aborted = true
		}
	}

	// Every unit done exactly once with its expected output, none
	// quarantined, and the state directory fsck-clean.
	st := c.Snapshot()
	h64 := fnv.New64a()
	done := 0
	for _, us := range st.Units {
		out, ok := c.Result(us.Unit.ID)
		if us.State == sweepd.UnitDone && us.Completions == 1 && ok && out == unitOutput(us.Unit) {
			done++
			io.WriteString(h64, out)
		}
	}
	rep, ferr := sweepd.Fsck(disk, dir)
	clean := ferr == nil && rep.Clean()
	switch {
	case aborted:
		fmt.Fprintf(os.Stderr, "perfbench: sweep %d aborted with %d of %d units done\n", e.seq-1, done, len(units))
		r.failed = len(units) - done
	case !clean || st.Quarantined > 0 || done < len(units):
		fmt.Fprintf(os.Stderr, "perfbench: sweep %d: %d of %d units done exactly once, %d quarantined, fsck clean %v (%v)\n",
			e.seq-1, done, len(units), st.Quarantined, clean, ferr)
		r.failed, r.incorrect = len(units)-done, len(units)-done
		if !clean {
			r.failed, r.incorrect = len(units), len(units)
		}
	}
	r.units = float64(len(units) - r.failed)
	r.sim = []uint64{uint64(done), uint64(st.Quarantined), h64.Sum64()}

	r.samples = map[string][]float64{
		"status_ms": polls.latencyMS, "status_lag_ms": polls.lagMS, "status_kb": polls.kb,
	}
	if tr != nil {
		gs := gate.Stats()
		for _, ep := range gs.Endpoints {
			r.counts["inflight_max"] = max(r.counts["inflight_max"], float64(ep.InflightMax))
			r.counts["queued_max"] = max(r.counts["queued_max"], float64(ep.QueuedMax))
			r.counts["shed"] += float64(ep.Shed)
		}
		r.counts["syncs"] = float64(cfs.syncs.Load())
		r.counts["bytes"] = float64(cfs.bytes.Load())
		r.counts["renames"] = float64(cfs.renames.Load())
		r.samples["sync_us"] = cfs.syncMicros()
	}
	return r
}

// pollSink collects one sweep's status polls.
type pollSink struct {
	from             time.Time
	latencyMS, lagMS []float64
	kb               []float64
}

// statusPoller is the open-loop GET /v1/status generator: poll k is due
// at origin + k·period whether or not earlier polls have returned, and
// its latency runs from when it was due, so a stall also charges the
// polls queued behind it. Polls are sent only while a sink is attached
// (a sweep is running) and only for due times after it was attached.
type statusPoller struct {
	period time.Duration
	// mu is held across each poll, so attach waits for a poll in
	// flight to land before swapping the target.
	mu     sync.Mutex
	sink   *pollSink
	client *http.Client
	url    string
	quit   chan struct{}
	done   chan struct{}
}

func startPoller(period time.Duration) *statusPoller {
	p := &statusPoller{period: period, quit: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

// attach directs polls at url, recording into s, from now on; a nil
// sink pauses polling.
func (p *statusPoller) attach(s *pollSink, client *http.Client, url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s != nil {
		s.from = time.Now()
	}
	p.sink, p.client, p.url = s, client, url
}

func (p *statusPoller) stop() {
	close(p.quit)
	<-p.done
}

func (p *statusPoller) loop() {
	defer close(p.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	due := time.Now()
	for {
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-p.quit:
				return
			}
		} else {
			select {
			case <-p.quit:
				return
			default:
			}
		}
		p.mu.Lock()
		if p.sink != nil && !due.Before(p.sink.from) {
			p.poll(p.sink, due)
		}
		p.mu.Unlock()
		due = due.Add(p.period)
	}
}

func (p *statusPoller) poll(s *pollSink, due time.Time) {
	start := time.Now()
	resp, err := p.client.Get(p.url)
	if err != nil {
		return
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if resp.StatusCode != http.StatusOK {
		return
	}
	s.latencyMS = append(s.latencyMS, float64(end.Sub(due))/float64(time.Millisecond))
	s.lagMS = append(s.lagMS, float64(start.Sub(due))/float64(time.Millisecond))
	s.kb = append(s.kb, float64(n)/1024)
}

// tracedClient wraps a coordinator client in one span per RPC. Errors
// pass through unchanged, so a shed (*sweepd.OverloadError) still
// reaches the worker's retry path.
type tracedClient struct {
	inner sweepd.Client
	tr    *tracer
	trace uint64
}

var _ sweepd.Client = (*tracedClient)(nil)

func traced[Req, Resp any](c *tracedClient, name string, ctx context.Context, req Req, call func(context.Context, Req) (Resp, error)) (Resp, error) {
	id := c.tr.open(name, c.trace, 0)
	defer c.tr.close(id)
	return call(ctx, req)
}

func (c *tracedClient) Lease(ctx context.Context, req sweepd.LeaseRequest) (sweepd.LeaseResponse, error) {
	return traced(c, "sweepd.lease", ctx, req, c.inner.Lease)
}

func (c *tracedClient) Heartbeat(ctx context.Context, req sweepd.HeartbeatRequest) (sweepd.HeartbeatResponse, error) {
	return traced(c, "sweepd.heartbeat", ctx, req, c.inner.Heartbeat)
}

func (c *tracedClient) Complete(ctx context.Context, req sweepd.CompleteRequest) (sweepd.CompleteResponse, error) {
	return traced(c, "sweepd.complete", ctx, req, c.inner.Complete)
}

func (c *tracedClient) CompleteBatch(ctx context.Context, req sweepd.CompleteBatchRequest) (sweepd.CompleteBatchResponse, error) {
	return traced(c, "sweepd.complete_batch", ctx, req, c.inner.CompleteBatch)
}

func (c *tracedClient) Release(ctx context.Context, req sweepd.ReleaseRequest) (sweepd.ReleaseResponse, error) {
	return traced(c, "sweepd.release", ctx, req, c.inner.Release)
}

// rpcNames lists every span tracedClient records.
var rpcNames = []string{"sweepd.lease", "sweepd.heartbeat", "sweepd.complete", "sweepd.complete_batch", "sweepd.release"}

// countingFS counts the journal's I/O on its way to the inner FS:
// fsyncs (file and directory) with their durations, bytes written, and
// renames. Errors pass through unchanged.
type countingFS struct {
	inner   vfs.FS
	syncs   atomic.Int64
	bytes   atomic.Int64
	renames atomic.Int64
	mu      sync.Mutex
	syncDur []time.Duration
}

var _ vfs.FS = (*countingFS)(nil)

func (c *countingFS) timedSync(f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.syncs.Add(1)
	c.mu.Lock()
	c.syncDur = append(c.syncDur, d)
	c.mu.Unlock()
	return err
}

// syncMicros lists every fsync's duration in microseconds.
func (c *countingFS) syncMicros() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.syncDur))
	for i, d := range c.syncDur {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return f, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) MkdirAll(dir string, perm os.FileMode) error { return c.inner.MkdirAll(dir, perm) }
func (c *countingFS) Create(name string) (vfs.File, error)        { return c.wrap(c.inner.Create(name)) }
func (c *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.inner.CreateTemp(dir, pattern))
}
func (c *countingFS) Append(name string) (vfs.File, error)      { return c.wrap(c.inner.Append(name)) }
func (c *countingFS) Open(name string) (vfs.File, error)        { return c.inner.Open(name) }
func (c *countingFS) ReadFile(name string) ([]byte, error)      { return c.inner.ReadFile(name) }
func (c *countingFS) Remove(name string) error                  { return c.inner.Remove(name) }
func (c *countingFS) Stat(name string) (os.FileInfo, error)     { return c.inner.Stat(name) }
func (c *countingFS) ReadDir(dir string) ([]os.DirEntry, error) { return c.inner.ReadDir(dir) }
func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.inner.Rename(oldpath, newpath)
}
func (c *countingFS) SyncDir(dir string) error {
	return c.timedSync(func() error { return c.inner.SyncDir(dir) })
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error { return f.fs.timedSync(f.File.Sync) }

// tailMS reports p99 of xs when the sample supports it under the
// ten-beyond rule; otherwise it warns and reports the highest supported
// percentile (or the median) under the p99 name.
func tailMS(what string, xs []float64) float64 {
	pct, v, ok := tailPercentile(xs)
	switch {
	case ok && pct >= 99:
		return quantile(xs, 0.99)
	case ok:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples support only p%g, reported as p99\n", what, len(xs), pct)
		return v
	default:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples support no tail percentile\n", what, len(xs))
		return median(xs)
	}
}

func fleetLayers(lm layerMetrics, plain, traced []round, ix spanIndex) {
	p := sumRounds(plain)
	t := sumRounds(traced)
	units := t.units
	status := p.samples["status_ms"]
	lm["status_p50_ms"] = median(status)
	lm["status_p99_ms"] = tailMS("status", status)
	lm["status.samples"] = float64(len(status))
	lm["status.lag_ms"] = mean(p.samples["status_lag_ms"])
	lm["sweepd.status_kb"] = mean(p.samples["status_kb"])
	lease := ix.durationsMS("sweepd.lease")
	complete := ix.durationsMS("sweepd.complete")
	lm["sweepd.lease_p50_ms"] = median(lease)
	lm["sweepd.lease_p99_ms"] = tailMS("lease", lease)
	lm["sweepd.complete_p50_ms"] = median(complete)
	lm["sweepd.complete_p99_ms"] = tailMS("complete", complete)
	rpcs := 0
	for _, name := range rpcNames {
		rpcs += len(ix.byName[name])
	}
	lm["sweepd.rpcs_per_unit"] = float64(rpcs) / units
	for _, r := range traced {
		lm["gate.inflight_max"] = max(lm["gate.inflight_max"], r.counts["inflight_max"])
		lm["gate.queued_max"] = max(lm["gate.queued_max"], r.counts["queued_max"])
	}
	lm["gate.shed"] = t.counts["shed"]
	lm["vfs.syncs_per_unit"] = t.counts["syncs"] / units
	lm["vfs.bytes_per_unit"] = t.counts["bytes"] / units
	lm["vfs.sync_p50_us"] = median(t.samples["sync_us"])
	lm["vfs.renames"] = t.counts["renames"] / float64(len(traced))
}
