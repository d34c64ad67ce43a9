// Command ufsim regenerates the tables and figures of "Uncore Encore:
// Covert Channels Exploiting Uncore Frequency Scaling" (MICRO 2023) on the
// simulated platform, through a supervised runner that survives individual
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
// Sweep supervision (see DESIGN.md "Experiment orchestration"):
//
//	-jobs 4          run up to 4 experiments in parallel
//	-timeout 10m     bound each attempt's wall-clock time
//	-retries 1       retry a failed experiment once, reseeded
//	-keep-going      survive failures and finish the rest of the sweep
//	-artifacts DIR   write crash artifacts and the sweep manifest here
//	-resume          skip experiments already done in DIR's manifest
//
// A failed run leaves DIR/<id>.crash.json with the seed, options, error,
// stack, log tail, and the exact replay command. Ctrl-C cancels the sweep
// gracefully: in-flight runs stop at their next engine check, and the
// summary still prints.
//
// The reliability subcommand runs one faulted ARQ transfer and prints
// its per-frame transcript:
//
//	ufsim reliability -intensity 0.75 -bytes 32
//
// The bench subcommand runs the performance-regression harness and
// writes a normalized BENCH_<date>.json (see scripts/bench.sh):
//
//	ufsim bench                 full run, including quick experiment trials
//	ufsim bench -short          hot-path cases only (the CI gate)
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
// Profiling: -cpuprofile FILE on ufsim and ufsim bench writes a CPU
// profile of the whole run for `go tool pprof` (off by default):
//
//	ufsim -experiment fig3 -quick -cpuprofile cpu.pprof
//	ufsim bench -short -cpuprofile cpu.pprof
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
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/vfs"
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
		case "bench":
			os.Exit(benchCmd(os.Args[2:]))
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
		artifacts = flag.String("artifacts", "", "directory for crash artifacts and the sweep manifest")
		resume    = flag.Bool("resume", false, "skip experiments already completed in the -artifacts manifest")
		maxSteps  = flag.Int64("max-steps", 0, "per-machine engine step budget (0 = none); runaway simulations fail instead of spinning")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

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
		fmt.Fprintln(os.Stderr, "ufsim: -resume needs -artifacts (the manifest lives there)")
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

	var exps []experiments.Experiment
	if *id == "all" {
		exps = experiments.All()
	} else {
		e, ok := experiments.Get(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ufsim: unknown experiment %q (use -list)\n", *id)
			return exitUsage
		}
		exps = []experiments.Experiment{e}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runner.Config{
		Jobs:           *jobs,
		Timeout:        *timeout,
		Retries:        *retries,
		KeepGoing:      *keepGoing,
		Seed:           *seed,
		Quick:          *quick,
		MaxEngineSteps: *maxSteps,
		ArtifactDir:    *artifacts,
		Resume:         *resume,
		Log:            os.Stderr,
		OnResult:       func(rep runner.Report) { emit(rep, *out) },
	}
	start := time.Now()
	sum, err := runner.Run(ctx, cfg, exps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ufsim: %v\n", err)
		return exitFailures
	}

	if len(exps) > 1 || sum.Failed > 0 || sum.Skipped > 0 {
		fmt.Printf("sweep: %s in %.1fs\n", sum, time.Since(start).Seconds())
	}
	for _, rep := range sum.Reports {
		if rep.Status == runner.StatusFailed && rep.Artifact != "" {
			fmt.Fprintf(os.Stderr, "ufsim: %s failed; crash artifact: %s\n", rep.ID, rep.Artifact)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "ufsim: sweep interrupted")
		return exitSignal
	}
	if sum.Failed > 0 {
		if *artifacts != "" {
			fmt.Fprintf(os.Stderr, "ufsim: re-run only the failures with: ufsim -experiment %s -artifacts %s -resume\n", *id, *artifacts)
		}
		return exitFailures
	}
	return exitOK
}

// emit renders one finished experiment: to stdout, and — for successful
// runs with -out — to <out>/<id>.txt. Reports arrive serialized from the
// runner, so concurrent sweeps never interleave their rendering.
func emit(rep runner.Report, out string) {
	switch rep.Status {
	case runner.StatusDone:
		if rep.Cached {
			return // already reported (and rendered) by the sweep that did it
		}
		fmt.Printf("== %s: %s\n", rep.ID, rep.Title)
		if err := rep.Result.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ufsim: rendering %s: %v\n", rep.ID, err)
		}
		fmt.Printf("(%s in %.1fs)\n\n", rep.ID, rep.Duration.Seconds())
		if out != "" {
			if err := writeReport(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "ufsim: writing %s report: %v\n", rep.ID, err)
			}
		}
	case runner.StatusFailed:
		fmt.Fprintf(os.Stderr, "ufsim: %s failed after %d attempt(s): %v\n", rep.ID, rep.Attempts, rep.Err)
	case runner.StatusSkipped:
		fmt.Fprintf(os.Stderr, "ufsim: %s skipped: %v\n", rep.ID, rep.Err)
	}
}

// writeReport persists one report atomically: the render goes to a temp
// file that is renamed into place only on success, so a failed or
// interrupted Render never leaves a truncated <id>.txt behind.
func writeReport(dir string, rep runner.Report) error {
	return vfs.WriteFileAtomic(vfs.OS{}, filepath.Join(dir, rep.ID+".txt"), func(w io.Writer) error {
		return rep.Result.Render(w)
	})
}
