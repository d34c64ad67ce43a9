package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
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
// The sweep runs through runSweep, like `ufsim -experiment`: the first
// SIGINT/SIGTERM drains, the second aborts, and every transition is in
// the state dir's journal, so `ufsim serve -resume` — or `ufsim
// -experiment ... -resume` on the same artifacts dir — re-runs only the
// unfinished and quarantined units.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":7733", "HTTP listen address for workers")
		id        = fs.String("experiment", "all", "experiment id to shard (or \"all\")")
		quick     = fs.Bool("quick", false, "reduced trial counts and sweep densities")
		seed      = fs.Uint64("seed", experiments.DefaultOptions().Seed, "simulation seed")
		replicas  = fs.Int("replicas", 1, "replicas per experiment (derived seeds)")
		artifacts = fs.String("artifacts", "sweep-artifacts", "state dir: sweep state, results, crash and quarantine artifacts, merged manifest")
		resume    = fs.Bool("resume", false, "resume from the state dir; only unfinished and quarantined units run")

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
		chaosSeed     = fs.Uint64("chaos-seed", 0xC0FFEE, "seed for the network and disk fault plans")

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
	if code != exitOK {
		return code
	}
	if err := os.MkdirAll(*artifacts, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ufsim serve: %v\n", err)
		return exitFailures
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
	var plan *faults.NetPlan
	if *chaosNet > 0 || *chaosOverload > 0 {
		plan = faults.NewNetPlan(faults.DefaultNetConfig(*chaosNet, *chaosOverload), *chaosSeed)
	}
	base := runner.Config{
		Timeout:        *timeout,
		Retries:        *retries,
		MaxEngineSteps: *maxSteps,
	}

	return runSweep(context.Background(), sweepSpec{
		name:  "ufsim serve",
		units: sweepd.ReplicaUnits(ids, *seed, *quick, *replicas),
		coord: sweepd.CoordinatorConfig{
			LeaseTTL:        *leaseTTL,
			ExpiryBudget:    *expiryN,
			QuarantineAfter: *quarantine,
			RetryBase:       *retryBase,
			Seed:            *seed,
			StateDir:        *artifacts,
			Resume:          *resume,
			FS:              stateFS,
			Log:             os.Stderr,
		},
		gate: sweepd.GateLimits{Inflight: *inflight, Queue: *queueLen, QueueWait: *queueWait},
		fleet: sweepd.FleetConfig{
			Workers:        *loopback,
			Jobs:           *jobs,
			Plan:           plan,
			HerdStart:      *herd,
			BatchCompletes: *batch,
			Log:            os.Stderr,
		},
		newRunner: func(*sweepd.Coordinator) sweepd.UnitRunner { return experimentRunner(base, experiments.Get) },
		addr:      *addr,
		drainFor:  *drainFor,
		stats: func(rep sweepd.FleetReport, gate *sweepd.Gate) {
			if plan != nil {
				fmt.Fprintf(os.Stderr, "ufsim serve: chaos stats: %+v (fleet %+v, gate %+v)\n", plan.Stats(), rep, gate.Stats())
			}
			if disk != nil {
				fmt.Fprintf(os.Stderr, "ufsim serve: disk chaos stats: %+v\n", disk.Stats())
			}
		},
		artifacts: *artifacts,
		resume:    fmt.Sprintf("ufsim serve -artifacts %s -resume ...", *artifacts),
	})
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

	w := sweepd.NewWorker(sweepd.WorkerConfig{
		ID:     *id,
		Client: &sweepd.HTTPClient{Base: *coord},
		Run: experimentRunner(runner.Config{
			Timeout:        *timeout,
			Retries:        *retries,
			MaxEngineSteps: *maxSteps,
		}, experiments.Get),
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
	case fired(aborted):
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
