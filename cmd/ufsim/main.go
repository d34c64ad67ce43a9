// Command ufsim regenerates the tables and figures of "Uncore Encore:
// Covert Channels Exploiting Uncore Frequency Scaling" (MICRO 2023) on the
// simulated platform, through a supervised sweep that survives individual
// experiment failures.
//
// Usage:
//
//	ufsim -list                      list available experiments
//	ufsim -experiment fig3           regenerate Figure 3
//	ufsim -experiment all            regenerate everything
//	ufsim -experiment fig10 -quick   fast, reduced-density variant
//	ufsim -experiment fig9 -seed 7   change the simulation seed
//
// Every sweep runs on the sweep coordinator with in-process workers, the
// same path as `ufsim serve -loopback` (see DESIGN.md "Experiment
// orchestration"):
//
//	-jobs 4          run 4 workers, one experiment each at a time
//	-timeout 10m     bound each attempt's wall-clock time
//	-retries 1       retry a failed experiment once, reseeded
//	-keep-going      survive failures and finish the rest of the sweep
//	-artifacts DIR   keep the sweep journal and crash artifacts here
//	-resume          reopen DIR's journal; only failed and unfinished
//	                 experiments run
//
// A failed run leaves DIR/<id>.<n>.crash.json (its nth failure) with the
// seed, options, error, stack, log tail, and the exact replay command.
// Each report prints as its experiment finishes. Ctrl-C drains the sweep
// (running experiments finish), a second Ctrl-C aborts it; the summary
// still prints.
//
// The reliability subcommand runs one faulted ARQ transfer and prints
// its per-frame transcript:
//
//	ufsim reliability -intensity 0.75 -bytes 32
//
// The serve and worker subcommands distribute a sweep across machines
// over a lease/heartbeat protocol (see DESIGN.md "Distributed sweep
// protocol"):
//
//	ufsim serve -addr :7733 -experiment all -artifacts DIR
//	ufsim worker -coordinator http://sweep-host:7733
//	ufsim serve -loopback 4 -quick      hermetic in-process fleet
//
// The coordinator persists sweep state durably: a checksummed
// append-only journal plus periodic snapshots (see DESIGN.md
// "Durability model"). The fsck subcommand verifies a state dir offline
// — journal checksums, snapshot/manifest consistency, orphaned or torn
// artifacts — and exits non-zero on corruption:
//
//	ufsim fsck sweep-artifacts
//
// Profiling: -cpuprofile FILE writes a CPU profile of the whole run for
// `go tool pprof` (off by default):
//
//	ufsim -experiment fig3 -quick -cpuprofile cpu.pprof
//
// Exit codes everywhere: 0 success, 1 completed with failures, 2 usage
// error, 3 aborted by signal (SIGINT and SIGTERM are handled alike:
// first signal drains, second aborts), 4 degraded — the coordinator
// could not persist sweep state and refused to keep going.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// Exit codes, uniform across subcommands: 0 success, 1 completed with
// failures (failed, quarantined, or unfinished units — and for fsck,
// corruption found), 2 usage error, 3 aborted by signal, 4 degraded
// (sweep state could not be persisted; the sweep stopped rather than
// continue without crash-proofing).
const (
	exitOK       = 0
	exitFailures = 1
	exitUsage    = 2
	exitSignal   = 3
	exitDegraded = 4
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "reliability":
			reliabilityCmd(os.Args[2:])
			return
		case "serve":
			os.Exit(serveCmd(os.Args[2:]))
		case "worker":
			os.Exit(workerCmd(os.Args[2:]))
		case "fsck":
			os.Exit(fsckCmd(os.Args[2:]))
		}
	}
	os.Exit(run())
}

func run() int {
	var (
		list      = flag.Bool("list", false, "list available experiments")
		id        = flag.String("experiment", "", "experiment id to run (or \"all\")")
		quick     = flag.Bool("quick", false, "reduced trial counts and sweep densities")
		seed      = flag.Uint64("seed", experiments.DefaultOptions().Seed, "simulation seed")
		out       = flag.String("out", "", "directory to also write per-experiment reports into")
		jobs      = flag.Int("jobs", 1, "experiments to run in parallel")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit per experiment attempt (0 = none)")
		retries   = flag.Int("retries", 0, "retries per failed experiment (each reseeded)")
		keepGoing = flag.Bool("keep-going", false, "continue the sweep past failures")
		artifacts = flag.String("artifacts", "", "directory for the sweep state, crash artifacts and the final status (default: state in memory)")
		resume    = flag.Bool("resume", false, "reopen the -artifacts sweep state; only unfinished and failed experiments run")
		maxSteps  = flag.Int64("max-steps", 0, "per-machine engine step budget (0 = none); runaway simulations fail instead of spinning")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// An unknown subcommand (or a stray argument) must not pass for
		// a successful run.
		fmt.Fprintf(os.Stderr, "ufsim: unknown subcommand or argument %q (subcommands: reliability, serve, worker, fsck)\n", flag.Arg(0))
		return exitUsage
	}

	stopProfile, err := startCPUProfile(*cpuprof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ufsim: %v\n", err)
		return exitFailures
	}
	defer stopProfile()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "ufsim: %v\n", err)
			return exitFailures
		}
	}
	if *resume && *artifacts == "" {
		fmt.Fprintln(os.Stderr, "ufsim: -resume needs -artifacts (the sweep state lives there)")
		return exitUsage
	}

	if *list || *id == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Title)
		}
		if *id == "" && !*list {
			fmt.Println("\nrun one with: ufsim -experiment <id>")
		}
		return 0
	}

	ids, code := experimentIDs(*id)
	if code != exitOK {
		return code
	}
	return runSweep(context.Background(), experimentSweep(experimentOptions{
		id:        *id,
		ids:       ids,
		seed:      *seed,
		quick:     *quick,
		jobs:      *jobs,
		artifacts: *artifacts,
		keepGoing: *keepGoing,
		resume:    *resume,
		out:       *out,
		base: runner.Config{
			Timeout:        *timeout,
			Retries:        *retries,
			MaxEngineSteps: *maxSteps,
			Log:            os.Stderr,
		},
		lookup: experiments.Get,
		stdout: os.Stdout,
		stderr: os.Stderr,
	}))
}
