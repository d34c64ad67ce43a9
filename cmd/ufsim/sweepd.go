package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/sweepd"
	"repro/internal/vfs"
)

// serveCmd is `ufsim serve`: it shards a sweep into units and
// coordinates workers over the lease/heartbeat protocol — over HTTP for
// real fleets, or over the in-process loopback transport with
// -loopback N (the hermetic mode CI uses, optionally chaos-faulted with
// -chaos-net).
//
// Shutdown is two-grade: the first SIGINT/SIGTERM drains (no new
// leases; in-flight units finish and report), the second aborts. Either
// way the merged manifest is written atomically before exit, so
// `ufsim serve -resume` — or plain `ufsim -resume` on the same
// artifacts dir — re-runs only the unfinished units.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":7733", "HTTP listen address for workers")
		id        = fs.String("experiment", "all", "experiment id to shard (or \"all\")")
		quick     = fs.Bool("quick", false, "reduced trial counts and sweep densities")
		seed      = fs.Uint64("seed", experiments.DefaultOptions().Seed, "simulation seed")
		replicas  = fs.Int("replicas", 1, "replicas per experiment (derived seeds)")
		artifacts = fs.String("artifacts", "sweep-artifacts", "state dir: sweep state, results, crash and quarantine artifacts, merged manifest")
		resume    = fs.Bool("resume", false, "resume from the state dir; only unfinished units run")

		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "worker lease TTL (missed heartbeats past this reassign the unit)")
		expiryN    = fs.Int("expiry-budget", 5, "lease expiries before a unit is quarantined")
		quarantine = fs.Int("quarantine-after", 3, "distinct-worker failures before a unit is quarantined")
		retryBase  = fs.Duration("retry-base", 500*time.Millisecond, "base backoff before re-leasing a failed unit")

		loopback = fs.Int("loopback", 0, "run N in-process workers instead of serving HTTP")
		jobs     = fs.Int("jobs", 1, "units per loopback worker in parallel")
		timeout  = fs.Duration("timeout", 0, "wall-clock limit per unit attempt in loopback workers (0 = none)")
		retries  = fs.Int("retries", 0, "supervised retries per unit in loopback workers")
		maxSteps = fs.Int64("max-steps", 0, "per-machine engine step budget in loopback workers (0 = none)")

		chaosNet      = fs.Float64("chaos-net", 0, "network-fault intensity in [0,1] for the loopback transport (testing)")
		chaosDisk     = fs.Float64("chaos-disk", 0, "disk-fault intensity in [0,1] injected into all state-dir I/O (testing)")
		chaosOverload = fs.Float64("chaos-overload", 0, "overload intensity in [0,1]: latency ramps and slow-loris trickles on the loopback transport (testing)")
		chaosSeed     = fs.Uint64("chaos-seed", 0xC0FFEE, "seed for the network/disk/overload fault plans")

		inflight  = fs.Int("inflight", 0, "admission cap: concurrent requests per endpoint (0 = 64)")
		queueLen  = fs.Int("queue", 0, "admission queue: waiting requests per endpoint before shedding (0 = 4x inflight)")
		queueWait = fs.Duration("queue-wait", 0, "longest a queued request waits before it is shed (0 = 1s)")
		herd      = fs.Bool("herd", false, "release all loopback workers at the same instant (thundering-herd testing)")
		batch     = fs.Bool("batch", false, "loopback workers deliver completions as per-round batches")
		drainFor  = fs.Duration("drain", 5*time.Second, "HTTP shutdown drain deadline")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ufsim serve [-addr :7733 | -loopback N] [-experiment all] [-artifacts DIR] [-resume] ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids, code := experimentIDs(*id)
	if code != 0 {
		return code
	}
	if err := os.MkdirAll(*artifacts, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ufsim serve: %v\n", err)
		return 1
	}

	// The state-dir filesystem: real, or wrapped in the deterministic
	// disk-fault injector for chaos runs. The same seed drives net and
	// disk plans, so one flag pair reproduces a whole chaos run.
	var stateFS vfs.FS = vfs.OS{}
	var disk *faults.DiskFS
	if *chaosDisk > 0 {
		disk = faults.NewFaultyDisk(vfs.OS{}, faults.DefaultDiskConfig(*chaosDisk), *chaosSeed)
		stateFS = disk
	}

	units := sweepd.ReplicaUnits(ids, *seed, *quick, *replicas)
	c, err := sweepd.NewCoordinator(sweepd.CoordinatorConfig{
		LeaseTTL:        *leaseTTL,
		ExpiryBudget:    *expiryN,
		QuarantineAfter: *quarantine,
		RetryBase:       *retryBase,
		Seed:            *seed,
		StateDir:        *artifacts,
		Resume:          *resume,
		FS:              stateFS,
		Log:             os.Stderr,
	}, units)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ufsim serve: %v\n", err)
		return 1
	}
	defer c.Close()

	// The admission gate fronts both transports and feeds the brownout
	// pressure signal into lease retry hints.
	gate := sweepd.NewGate(sweepd.GateConfig{Default: sweepd.GateLimits{
		Inflight:  *inflight,
		Queue:     *queueLen,
		QueueWait: *queueWait,
	}})
	c.AttachGate(gate)

	if salv := c.Salvage(); salv != nil {
		fmt.Fprintf(os.Stderr, "ufsim serve: LOSSY RECOVERY (%s): %s (report: %s)\n",
			salv.Kind, salv.Detail, filepath.Join(*artifacts, sweepd.SalvageName))
	}

	// Two-grade shutdown: first signal drains, second aborts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	signalled := make(chan struct{})
	go func() {
		select {
		case <-sig:
		case <-ctx.Done():
			return
		}
		fmt.Fprintln(os.Stderr, "ufsim serve: draining (signal again to abort)")
		close(signalled)
		c.Drain()
		// A drained sweep leaves unleased units pending forever, so Done
		// never closes; release the main wait once no lease is live.
		go func() {
			for !c.Quiesced() {
				select {
				case <-ctx.Done():
					return
				case <-time.After(100 * time.Millisecond):
				}
			}
			cancel()
		}()
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "ufsim serve: aborting")
			cancel()
		case <-ctx.Done():
		}
	}()

	if *loopback > 0 {
		var plan *faults.NetPlan
		if *chaosNet > 0 {
			plan = faults.NewNetPlan(faults.DefaultNetConfig(*chaosNet), *chaosSeed)
		}
		var overload *faults.OverloadPlan
		if *chaosOverload > 0 {
			overload = faults.NewOverloadPlan(faults.DefaultOverloadConfig(*chaosOverload), *chaosSeed)
		}
		base := runner.Config{
			Timeout:        *timeout,
			Retries:        *retries,
			MaxEngineSteps: *maxSteps,
			ArtifactDir:    *artifacts,
		}
		rep := sweepd.RunFleet(ctx, c, sweepd.FleetConfig{
			Workers:        *loopback,
			Jobs:           *jobs,
			NewRunner:      func(string) sweepd.UnitRunner { return sweepd.ExperimentRunner(base) },
			Plan:           plan,
			Overload:       overload,
			Gate:           gate,
			HerdStart:      *herd,
			BatchCompletes: *batch,
			Respawn:        plan != nil,
			Log:            os.Stderr,
		})
		if plan != nil {
			fmt.Fprintf(os.Stderr, "ufsim serve: chaos stats: %+v (fleet %+v)\n", plan.Stats(), rep)
		}
		if overload != nil {
			fmt.Fprintf(os.Stderr, "ufsim serve: overload stats: %+v (gate %+v)\n", overload.Stats(), gate.Stats())
		}
		if disk != nil {
			fmt.Fprintf(os.Stderr, "ufsim serve: disk chaos stats: %+v\n", disk.Stats())
		}
		return finishSweep(c, *artifacts, drained(signalled))
	}

	handler := sweepd.NewServer(c, sweepd.ServerConfig{Gate: gate, Log: os.Stderr})
	srv := sweepd.NewHTTPServer(*addr, handler, sweepd.HTTPTimeouts{})
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ListenAndServe() }()
	hint := *addr
	if strings.HasPrefix(hint, ":") {
		hint = "HOST" + hint
	}
	fmt.Fprintf(os.Stderr, "ufsim serve: %d unit(s) on %s (workers: ufsim worker -coordinator http://%s)\n",
		len(units), *addr, hint)

	err = c.Wait(ctx, 200*time.Millisecond)
	if err != nil {
		// Aborted or drained: give live leases a beat to land their
		// completions, bounded so a hung worker cannot wedge shutdown.
		quiesce := time.After(2 * *leaseTTL)
	wait:
		for !c.Quiesced() {
			select {
			case <-quiesce:
				break wait
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	// Graceful drain: stop accepting, let in-flight requests land their
	// responses, and only hard-close past the deadline.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *drainFor)
	defer shutCancel()
	srv.Shutdown(shutCtx)
	select {
	case err := <-srvErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ufsim serve: %v\n", err)
			return 1
		}
	default:
	}
	return finishSweep(c, *artifacts, drained(signalled))
}

// drained reports whether the channel fired.
func drained(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// finishSweep writes the merged manifest and maps the sweep outcome to
// the process exit code: 0 all done, 1 completed with quarantined units,
// 3 stopped by signal with work left unfinished, 4 degraded (state
// could not be persisted; the sweep is not resumable past its last
// durable transition). A signal that arrives after the last unit merged
// is not an abort — the sweep's content decides the code whenever
// nothing was cut short.
func finishSweep(c *sweepd.Coordinator, artifacts string, signalled bool) int {
	if err := c.WriteManifest(); err != nil {
		fmt.Fprintf(os.Stderr, "ufsim serve: writing manifest: %v\n", err)
	}
	// Final status snapshot (unit states plus shed/queue/breaker
	// counters when a gate is attached) — what CI uploads.
	if data, err := c.StatusJSON(); err == nil {
		if werr := os.WriteFile(filepath.Join(artifacts, "status-final.json"), append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "ufsim serve: writing final status: %v\n", werr)
		}
	}
	if deg, reason := c.Degraded(); deg {
		fmt.Fprintf(os.Stderr, "ufsim serve: DEGRADED: %s\n", reason)
		fmt.Fprintf(os.Stderr, "ufsim serve: verify the state dir with: ufsim fsck %s\n", artifacts)
		return exitDegraded
	}
	st := c.Snapshot()
	fmt.Fprintf(os.Stderr, "ufsim serve: done=%d quarantined=%d pending=%d leased=%d (manifest in %s)\n",
		st.Done, st.Quarantined, st.Pending, st.Leased, artifacts)
	for _, u := range st.Units {
		if u.State == sweepd.UnitQuarantined {
			fmt.Fprintf(os.Stderr, "ufsim serve: %s quarantined: %s (%s)\n",
				u.Unit.ID, u.Quarantine, sweepd.QuarantinePath(artifacts, u.Unit.ID))
		}
	}
	unfinished := st.Pending + st.Leased
	switch {
	case unfinished > 0:
		fmt.Fprintf(os.Stderr, "ufsim serve: resume with: ufsim serve -artifacts %s -resume ...\n", artifacts)
		if signalled {
			return 3
		}
		return 1
	case st.Quarantined > 0:
		return 1
	default:
		return 0
	}
}

// workerCmd is `ufsim worker`: it joins a coordinator's sweep over HTTP
// and runs leased units through the supervised experiment runner. The
// first SIGINT/SIGTERM drains (in-flight units finish and report); the
// second aborts them and releases the leases so the coordinator can
// reassign immediately.
func workerCmd(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	var (
		coord    = fs.String("coordinator", "", "coordinator base URL, e.g. http://sweep-host:7733 (required)")
		id       = fs.String("id", "", "worker name in leases and failure records (default host.pid)")
		jobs     = fs.Int("jobs", 1, "units to lease and run in parallel")
		timeout  = fs.Duration("timeout", 0, "wall-clock limit per unit attempt (0 = none)")
		retries  = fs.Int("retries", 0, "supervised retries per unit (each reseeded)")
		maxSteps = fs.Int64("max-steps", 0, "per-machine engine step budget (0 = none)")
		scratch  = fs.String("artifacts", "", "local scratch dir for crash artifacts (shipped to the coordinator regardless)")

		batch     = fs.Bool("batch", false, "deliver each lease round's completions as one batched request")
		retryBase = fs.Duration("retry-base", 50*time.Millisecond, "first rung of the jittered transport retry backoff")
		brkAfter  = fs.Int("breaker-after", 8, "consecutive transport failures before the circuit breaker opens (negative disables)")
		brkCool   = fs.Duration("breaker-cooldown", 2*time.Second, "how long an open breaker waits before probing the coordinator")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ufsim worker -coordinator URL [-id NAME] [-jobs N] ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *coord == "" {
		fs.Usage()
		return 2
	}
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	if *scratch != "" {
		if err := os.MkdirAll(*scratch, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "ufsim worker: %v\n", err)
			return 1
		}
	}

	w := sweepd.NewWorker(sweepd.WorkerConfig{
		ID:     *id,
		Client: &sweepd.HTTPClient{Base: *coord},
		Run: sweepd.ExperimentRunner(runner.Config{
			Timeout:        *timeout,
			Retries:        *retries,
			MaxEngineSteps: *maxSteps,
			ArtifactDir:    *scratch,
		}),
		Jobs:            *jobs,
		RetryBase:       *retryBase,
		BatchCompletes:  *batch,
		BreakerAfter:    *brkAfter,
		BreakerCooldown: *brkCool,
		Log:             os.Stderr,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	aborted := make(chan struct{})
	go func() {
		select {
		case <-sig:
		case <-ctx.Done():
			return
		}
		fmt.Fprintln(os.Stderr, "ufsim worker: draining (signal again to abort)")
		w.Drain()
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "ufsim worker: aborting; releasing leases")
			close(aborted)
			cancel()
		case <-ctx.Done():
		}
	}()

	err := w.Run(ctx)
	switch {
	case drained(aborted):
		return 3
	case errors.Is(err, sweepd.ErrDegraded):
		// The coordinator refused leases because it cannot persist
		// state; surface the distinct code so fleet automation restarts
		// nothing until the state dir is fixed.
		fmt.Fprintf(os.Stderr, "ufsim worker: %v\n", err)
		return exitDegraded
	case err != nil && !errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "ufsim worker: %v\n", err)
		return 1
	default:
		fmt.Fprintln(os.Stderr, "ufsim worker: sweep finished")
		return 0
	}
}

// experimentIDs resolves -experiment into a list of experiment IDs.
func experimentIDs(id string) ([]string, int) {
	if id == "all" {
		var ids []string
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		return ids, 0
	}
	if _, ok := experiments.Get(id); !ok {
		fmt.Fprintf(os.Stderr, "ufsim: unknown experiment %q (use -list)\n", id)
		return nil, 2
	}
	return []string{id}, 0
}
