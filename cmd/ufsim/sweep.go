package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/sweepd"
	"repro/internal/system"
	"repro/internal/vfs"
)

// sweepSpec is one coordinator-backed sweep. `ufsim -experiment` and
// `ufsim serve` both describe their sweep as a sweepSpec and run it
// through runSweep, which owns setup, signal handling, and the exit
// code.
type sweepSpec struct {
	// name prefixes every message ("ufsim", "ufsim serve").
	name  string
	units []sweepd.Unit
	coord sweepd.CoordinatorConfig
	gate  sweepd.GateLimits
	// With fleet.Workers > 0 the sweep runs on an in-process fleet
	// whose workers execute units through newRunner(c); otherwise it is
	// served over HTTP on addr to remote workers, with drainFor as the
	// shutdown deadline.
	fleet     sweepd.FleetConfig
	newRunner func(c *sweepd.Coordinator) sweepd.UnitRunner
	addr      string
	drainFor  time.Duration
	// stats, when non-nil, reports fault-injection counters once the
	// fleet returns.
	stats func(sweepd.FleetReport, *sweepd.Gate)
	// artifacts is the state dir on disk, where status-final.json goes;
	// empty when the sweep state lives in memory.
	artifacts string
	// resume is the command that resumes an unfinished sweep; empty
	// prints no hint.
	resume string
	// log receives every message; nil means stderr.
	log io.Writer
}

// runSweep runs s to the end and maps the outcome to the exit code.
// Shutdown is two-grade: the first SIGINT/SIGTERM drains (no new
// leases; in-flight units finish and report), the second aborts, and so
// does cancelling parent.
func runSweep(parent context.Context, s sweepSpec) int {
	if s.log == nil {
		s.log = os.Stderr
	}
	c, err := sweepd.NewCoordinator(s.coord, s.units)
	if err != nil {
		fmt.Fprintf(s.log, "%s: %v\n", s.name, err)
		return exitFailures
	}
	defer c.Close()

	// The admission gate fronts both transports and feeds the brownout
	// pressure signal into lease retry hints.
	gate := sweepd.NewGate(sweepd.GateConfig{Default: s.gate})
	c.AttachGate(gate)

	if salv := c.Salvage(); salv != nil {
		fmt.Fprintf(s.log, "%s: LOSSY RECOVERY (%s): %s (report: %s)\n",
			s.name, salv.Kind, salv.Detail, filepath.Join(s.coord.StateDir, sweepd.SalvageName))
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	signalled := handleSignals(ctx, cancel, c, sig, s.name, s.log)

	if s.fleet.Workers > 0 {
		fc := s.fleet
		fc.Gate = gate
		fc.NewRunner = func(string) sweepd.UnitRunner { return s.newRunner(c) }
		rep := sweepd.RunFleet(ctx, c, fc)
		if s.stats != nil {
			s.stats(rep, gate)
		}
	} else if code := serveHTTP(ctx, c, gate, s); code != exitOK {
		return code
	}
	return finishSweep(c, s, fired(signalled) || parent.Err() != nil)
}

// handleSignals runs the two-grade shutdown until ctx is done: the
// first signal on sig drains c, the second cancels. The returned
// channel closes on the first signal.
func handleSignals(ctx context.Context, cancel context.CancelFunc, c *sweepd.Coordinator, sig <-chan os.Signal, name string, logw io.Writer) <-chan struct{} {
	signalled := make(chan struct{})
	go func() {
		select {
		case <-sig:
		case <-ctx.Done():
			return
		}
		fmt.Fprintf(logw, "%s: draining (signal again to abort)\n", name)
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
			fmt.Fprintf(logw, "%s: aborting\n", name)
			cancel()
		case <-ctx.Done():
		}
	}()
	return signalled
}

// serveHTTP serves c to remote workers until the sweep finishes or ctx
// is cancelled, then shuts the listener down gracefully.
func serveHTTP(ctx context.Context, c *sweepd.Coordinator, gate *sweepd.Gate, s sweepSpec) int {
	handler := sweepd.NewServer(c, sweepd.ServerConfig{Gate: gate, Log: s.log})
	srv := sweepd.NewHTTPServer(s.addr, handler, sweepd.HTTPTimeouts{})
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ListenAndServe() }()
	hint := s.addr
	if strings.HasPrefix(hint, ":") {
		hint = "HOST" + hint
	}
	fmt.Fprintf(s.log, "%s: %d unit(s) on %s (workers: ufsim worker -coordinator http://%s)\n",
		s.name, len(s.units), s.addr, hint)

	if err := c.Wait(ctx, 200*time.Millisecond); err != nil {
		// Aborted or drained: give live leases a beat to land their
		// completions, bounded so a hung worker cannot wedge shutdown.
		quiesce := time.After(2 * s.coord.LeaseTTL)
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
	shutCtx, shutCancel := context.WithTimeout(context.Background(), s.drainFor)
	defer shutCancel()
	srv.Shutdown(shutCtx)
	select {
	case err := <-srvErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(s.log, "%s: %v\n", s.name, err)
			return exitFailures
		}
	default:
	}
	return exitOK
}

// fired reports whether the channel closed.
func fired(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// finishSweep writes the final status and maps the sweep outcome to the
// process exit code: 0 all done, 1 completed with quarantined units
// or stopped early with work left, 3 stopped by signal with work left
// unfinished, 4 degraded (state could not be persisted; the sweep is
// not resumable past its last durable transition). A signal that
// arrives after the last unit merged is not an abort — the sweep's
// content decides the code whenever nothing was cut short.
func finishSweep(c *sweepd.Coordinator, s sweepSpec, signalled bool) int {
	// Final status snapshot (unit states plus shed/queue/breaker
	// counters) — the sweep's one end-of-run record, what CI uploads. It
	// lives in the state dir, so it goes through the state FS like every
	// other file there.
	if s.artifacts != "" {
		if data, err := c.StatusJSON(); err == nil {
			fsys := s.coord.FS
			if fsys == nil {
				fsys = vfs.OS{}
			}
			werr := vfs.WriteFileAtomic(fsys, filepath.Join(s.artifacts, sweepd.FinalStatusName), func(w io.Writer) error {
				_, err := w.Write(append(data, '\n'))
				return err
			})
			if werr != nil {
				fmt.Fprintf(s.log, "%s: writing final status: %v\n", s.name, werr)
			}
		}
	}
	if deg, reason := c.Degraded(); deg {
		fmt.Fprintf(s.log, "%s: DEGRADED: %s\n", s.name, reason)
		fmt.Fprintf(s.log, "%s: verify the state dir with: ufsim fsck %s\n", s.name, s.coord.StateDir)
		return exitDegraded
	}
	st := c.Snapshot()
	where := ""
	if s.artifacts != "" {
		where = fmt.Sprintf(" (status in %s)", filepath.Join(s.artifacts, sweepd.FinalStatusName))
	}
	fmt.Fprintf(s.log, "%s: done=%d quarantined=%d pending=%d leased=%d%s\n",
		s.name, st.Done, st.Quarantined, st.Pending, st.Leased, where)
	for _, u := range st.Units {
		if u.State != sweepd.UnitQuarantined {
			continue
		}
		if s.artifacts != "" {
			fmt.Fprintf(s.log, "%s: %s quarantined: %s (%s)\n",
				s.name, u.Unit.ID, u.Quarantine, sweepd.QuarantinePath(s.artifacts, u.Unit.ID))
		} else {
			fmt.Fprintf(s.log, "%s: %s quarantined: %s\n", s.name, u.Unit.ID, u.Quarantine)
		}
	}
	if s.resume != "" && st.Done < len(st.Units) {
		fmt.Fprintf(s.log, "%s: resume with: %s\n", s.name, s.resume)
	}
	switch {
	case st.Pending+st.Leased > 0 && signalled:
		return exitSignal
	case st.Done < len(st.Units):
		return exitFailures
	default:
		return exitOK
	}
}

// experimentOptions are `ufsim -experiment`'s settings.
type experimentOptions struct {
	// id is the -experiment value (for the resume hint); ids are the
	// experiments it names.
	id  string
	ids []string
	// seed and quick select the sweep; jobs is the in-process worker
	// count.
	seed  uint64
	quick bool
	jobs  int
	// artifacts is the state dir (empty keeps the state in memory);
	// keepGoing runs past failures; resume reopens the state in
	// artifacts; out, when set, receives <id>.txt reports.
	artifacts string
	keepGoing bool
	resume    bool
	out       string
	// base carries the supervision knobs (Timeout, Retries,
	// MaxEngineSteps) for runner.RunOne.
	base runner.Config
	// lookup resolves unit experiments (experiments.Get outside
	// tests).
	lookup func(id string) (experiments.Experiment, bool)
	// stdout receives reports, stderr everything else.
	stdout, stderr io.Writer
}

// experimentSweep is the sweep behind `ufsim -experiment`: one unit per
// experiment on o.jobs in-process workers. runner.RunOne has already
// spent a unit's retries when it reports a failure, so the first
// failure quarantines it. State lives in the -artifacts dir, or in
// memory without one.
func experimentSweep(o experimentOptions) sweepSpec {
	var fsys vfs.FS = vfs.OS{}
	dir, resume := o.artifacts, ""
	if dir == "" {
		fsys, dir = faults.NewDiskFS(o.seed), "sweep"
	} else {
		resume = fmt.Sprintf("ufsim -experiment %s -artifacts %s -resume", o.id, dir)
	}
	rep := &reporter{o: o}
	return sweepSpec{
		name:  "ufsim",
		units: sweepd.ReplicaUnits(o.ids, o.seed, o.quick, 1),
		coord: sweepd.CoordinatorConfig{
			QuarantineAfter: 1,
			Seed:            o.seed,
			StateDir:        dir,
			Resume:          o.resume,
			FS:              fsys,
			Log:             o.stderr,
		},
		fleet: sweepd.FleetConfig{Workers: max(o.jobs, 1), Jobs: 1, Log: o.stderr},
		newRunner: func(c *sweepd.Coordinator) sweepd.UnitRunner {
			return rep.wrap(c, experimentRunner(o.base, o.lookup))
		},
		artifacts: o.artifacts,
		resume:    resume,
		log:       o.stderr,
	}
}

// reporter prints each unit's outcome as its run finishes: the report
// to stdout (and -out), failures and skips to stderr. Without
// -keep-going the first failure drains the sweep: units in flight
// finish, nothing new starts.
type reporter struct {
	mu sync.Mutex // serializes output across workers
	o  experimentOptions
}

// wrap decorates run with the reporting.
func (r *reporter) wrap(c *sweepd.Coordinator, run sweepd.UnitRunner) sweepd.UnitRunner {
	return func(ctx context.Context, u sweepd.Unit, progress func(string)) sweepd.UnitResult {
		res := run(ctx, u, progress)
		e, _ := r.o.lookup(u.Experiment)
		r.mu.Lock()
		defer r.mu.Unlock()
		switch {
		case res.OK:
			fmt.Fprintf(r.o.stdout, "== %s: %s\n%s(%s in %.1fs)\n\n", u.ID, e.Title, res.Result, u.ID, float64(res.DurationMS)/1000)
			if r.o.out != "" {
				if err := writeReport(r.o.out, string(u.ID), res.Result); err != nil {
					fmt.Fprintf(r.o.stderr, "ufsim: writing %s report: %v\n", u.ID, err)
				}
			}
		case ctx.Err() != nil:
			fmt.Fprintf(r.o.stderr, "ufsim: %s skipped: %s\n", u.ID, res.Error)
		default:
			fmt.Fprintf(r.o.stderr, "ufsim: %s failed after %d attempt(s): %s\n", u.ID, res.Attempts, res.Error)
			if !r.o.keepGoing {
				c.Drain()
			}
		}
		return res
	}
}

// writeReport persists one rendered report atomically as <dir>/<id>.txt,
// so an interrupted write never leaves a truncated file behind.
func writeReport(dir, id, report string) error {
	return vfs.WriteFileAtomic(vfs.OS{}, filepath.Join(dir, id+".txt"), func(w io.Writer) error {
		_, err := io.WriteString(w, report)
		return err
	})
}

// experimentRunner adapts the supervised single-experiment runner
// (runner.RunOne) into a sweepd.UnitRunner: each leased unit runs with
// per-attempt deadlines, panic isolation, reseeding retries, and crash
// artifacts. The returned runner recycles machines across its units
// through one pool, so each worker keeps its own warm machines.
//
// base supplies the supervision knobs (Timeout, Retries,
// MaxEngineSteps); the unit supplies Seed and Quick. A failed unit's
// crash artifact ships to the coordinator inside the completion, and
// the coordinator keeps it per failure as <id>.<n>.crash.json; the
// worker writes nothing to its own disk.
func experimentRunner(base runner.Config, lookup func(string) (experiments.Experiment, bool)) sweepd.UnitRunner {
	pool := &system.Pool{} // thread-safe; shared across the worker's units
	return func(ctx context.Context, u sweepd.Unit, progress func(string)) sweepd.UnitResult {
		e, ok := lookup(u.Experiment)
		if !ok {
			return sweepd.UnitResult{Error: fmt.Sprintf("unknown experiment %q", u.Experiment), Attempts: 1}
		}
		cfg := base
		cfg.Seed = u.Seed
		cfg.Quick = u.Quick
		cfg.Progress = progressWriter{fn: progress}
		rep := runner.RunOne(ctx, cfg, e, pool)

		res := sweepd.UnitResult{
			Attempts:   rep.Attempts,
			DurationMS: rep.Duration.Milliseconds(),
		}
		switch rep.Status {
		case runner.StatusDone:
			var b strings.Builder
			if err := rep.Result.Render(&b); err != nil {
				res.Error = fmt.Sprintf("rendering result: %v", err)
				return res
			}
			res.OK = true
			res.Result = b.String()
		default:
			if rep.Err != nil {
				res.Error = rep.Err.Error()
			} else {
				res.Error = string(rep.Status)
			}
			if rep.Artifact != nil {
				// Strings, numbers and a slice: marshalling cannot fail.
				res.Artifact, _ = json.MarshalIndent(rep.Artifact, "", "  ")
			}
		}
		return res
	}
}

// progressWriter adapts the worker's progress callback into the
// io.Writer the runner's Progress tee wants, forwarding one note per
// line.
type progressWriter struct{ fn func(string) }

// Write implements io.Writer.
func (p progressWriter) Write(b []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if line != "" {
			p.fn(line)
		}
	}
	return len(b), nil
}
