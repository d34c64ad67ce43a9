// Package runner is the supervision layer every experiment run goes
// through. RunOne executes one experiments.Experiment and survives the
// failure modes a long parameter sweep actually hits:
//
//   - Deadlines: each attempt runs under its own context.Context with an
//     optional wall-clock timeout; cancellation reaches the simulation
//     hot loop because every machine an experiment builds is bound to the
//     run context (sim.Engine.RunContext), and an optional per-machine
//     step budget converts runaway engines into typed errors.
//   - Panic isolation: a panicking experiment is recovered in its own
//     goroutine, recorded with its stack, and does not kill the caller.
//   - Bounded retry with reseeding: a failed run is retried up to
//     Retries times, each attempt reseeded by a configurable policy, so
//     seed-sensitive failures are absorbed without hiding real bugs.
//   - Crash artifacts: the final failure of an experiment carries a
//     deterministic artifact (ID, seeds, options, error, stack,
//     truncated run log, replay command) sufficient to reproduce the
//     exact run.
//
// Sweeps — parallelism, resume, stopping on the first failure — are the
// sweep coordinator's job (internal/sweepd): `ufsim` runs every unit of
// a sweep through RunOne on a worker of an in-process or remote fleet.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/system"
)

// Status classifies one experiment's outcome.
type Status string

const (
	// StatusDone means the experiment completed and rendered a result.
	StatusDone Status = "done"
	// StatusFailed means every attempt failed; the report carries a
	// crash artifact.
	StatusFailed Status = "failed"
	// StatusSkipped means the caller's context was cancelled before
	// the experiment ran to completion.
	StatusSkipped Status = "skipped"
)

// Config tunes a supervised run.
type Config struct {
	// Timeout bounds each attempt's wall-clock time; 0 means unbounded.
	Timeout time.Duration
	// Grace is how long after an attempt's context is done the
	// supervisor waits for the run to return before abandoning its
	// goroutine (only a run that ignores its context — a hard hang —
	// ever gets abandoned). Zero means 2s.
	Grace time.Duration
	// Retries is how many times a failed experiment is re-attempted,
	// each attempt reseeded by DefaultReseed.
	Retries int

	// Seed and Quick are forwarded into experiments.Options.
	Seed  uint64
	Quick bool
	// MaxEngineSteps arms every experiment machine's step watchdog; 0
	// leaves runaway engines to the Timeout.
	MaxEngineSteps int64

	// Log receives the runner's progress lines; nil discards them.
	Log io.Writer
	// Progress, when non-nil, additionally receives each run's log
	// lines (the experiment's sweep checkpoints) in real time. The
	// distributed worker (internal/sweepd) streams them to the
	// coordinator as heartbeat notes.
	Progress io.Writer
}

// DefaultReseed is the retry reseeding policy: attempt 0 keeps the base
// seed (so recorded results are reproduced), and each retry mixes the
// attempt number in with a splitmix64-style odd constant so a
// seed-sensitive failure gets a genuinely different platform.
func DefaultReseed(base uint64, attempt int) uint64 {
	if attempt == 0 {
		return base
	}
	return base ^ (uint64(attempt) * 0x9E3779B97F4A7C15)
}

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	// Status is the outcome class.
	Status Status
	// Attempts counts runs actually started; Seed is the last attempt's
	// seed.
	Attempts int
	Seed     uint64
	// Err is the final error for failed/skipped reports.
	Err error
	// Result is the outcome for done reports.
	Result experiments.Result
	// Duration is the wall-clock time across all attempts.
	Duration time.Duration
	// Artifact is the crash record of a failed report; nil otherwise.
	Artifact *Artifact
	// Abandoned marks a run whose goroutine ignored its context past
	// the grace window and was left behind (a leaked goroutine).
	Abandoned bool
}

// PanicError is a recovered experiment panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ErrAbandoned marks a run that ignored its cancelled context past the
// grace window; its goroutine is leaked.
var ErrAbandoned = errors.New("runner: run ignored cancellation and was abandoned")

// RunOne executes a single experiment through the full supervision path
// — per-attempt deadline, panic isolation, bounded reseeding retries,
// and crash-artifact capture. Every sweep worker runs each leased unit
// through it. pool may be nil (a fresh machine per trial) or shared
// across a worker's units.
func RunOne(ctx context.Context, cfg Config, e experiments.Experiment, pool *system.Pool) Report {
	if cfg.Grace <= 0 {
		cfg.Grace = 2 * time.Second
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	return supervise(ctx, cfg, e, logw, pool)
}

// supervise runs one experiment through the full attempt loop: deadline,
// panic recovery, bounded reseeding retries, and crash-artifact capture.
func supervise(ctx context.Context, cfg Config, e experiments.Experiment, logw io.Writer, pool *system.Pool) Report {
	rep := Report{ID: e.ID, Title: e.Title, Seed: cfg.Seed}
	rlog := &runLog{max: 16 << 10}
	start := time.Now()

	var seeds []uint64
	for attempt := 0; attempt <= cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			// Cancelled between attempts: the sweep is shutting down.
			rep.Err = err
			break
		}
		seed := DefaultReseed(cfg.Seed, attempt)
		rep.Seed = seed
		seeds = append(seeds, seed)
		if attempt > 0 {
			fmt.Fprintf(logw, "== %s: retry %d/%d with seed %#x\n", e.ID, attempt, cfg.Retries, seed)
			fmt.Fprintf(rlog, "retry %d/%d with seed %#x\n", attempt, cfg.Retries, seed)
		}
		res, abandoned, err := attempt1(ctx, cfg, e, seed, rlog, pool)
		rep.Attempts++
		rep.Abandoned = rep.Abandoned || abandoned
		if err == nil {
			rep.Status = StatusDone
			rep.Result = res
			rep.Duration = time.Since(start)
			return rep
		}
		rep.Err = err
		fmt.Fprintf(rlog, "attempt %d failed: %v\n", attempt, err)
		if ctx.Err() != nil {
			break // the sweep is cancelled; don't burn retries on it
		}
	}
	rep.Duration = time.Since(start)

	if errors.Is(rep.Err, context.Canceled) && ctx.Err() != nil {
		// Not this experiment's fault: the sweep was cancelled under it.
		rep.Status = StatusSkipped
		return rep
	}
	rep.Status = StatusFailed
	rep.Artifact = crashArtifact(cfg, e, seeds, rep, rlog.String())
	return rep
}

// attempt1 executes one attempt in its own goroutine under its own
// deadline, recovering panics and unwrapping engine aborts. The
// abandoned return is true when the run ignored its cancelled context
// past the grace window and its goroutine was left behind.
func attempt1(ctx context.Context, cfg Config, e experiments.Experiment, seed uint64, rlog *runLog, pool *system.Pool) (res experiments.Result, abandoned bool, err error) {
	var actx context.Context
	var cancel context.CancelFunc
	if cfg.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, cfg.Timeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var runlog io.Writer = rlog
	if cfg.Progress != nil {
		runlog = io.MultiWriter(rlog, cfg.Progress)
	}
	opts := experiments.Options{
		Seed:           seed,
		Quick:          cfg.Quick,
		Context:        actx,
		Log:            runlog,
		MaxEngineSteps: cfg.MaxEngineSteps,
		Machines:       pool,
	}

	type outcome struct {
		res experiments.Result
		err error
	}
	done := make(chan outcome, 1) // buffered: an abandoned run's late send must not block
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if cause, ok := sim.AbortCause(r); ok {
					// An engine abort is cancellation or a tripped
					// budget surfacing through error-free simulation
					// interfaces — a bounded run, not a bug.
					done <- outcome{err: cause}
					return
				}
				done <- outcome{err: &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		r, err := e.Run(opts)
		done <- outcome{res: r, err: err}
	}()

	select {
	case out := <-done:
		return out.res, false, out.err
	case <-actx.Done():
	}
	// The deadline (or sweep cancellation) hit; a cooperative run
	// returns promptly once its engine observes the context.
	grace := time.NewTimer(cfg.Grace)
	defer grace.Stop()
	select {
	case out := <-done:
		return out.res, false, out.err
	case <-grace.C:
		return nil, true, fmt.Errorf("%w (no return %v after %v deadline)", ErrAbandoned, cfg.Grace, cfg.Timeout)
	}
}

// runLog is the bounded, mutex-protected per-run log sink. The mutex
// matters: an abandoned goroutine may still write while the supervisor
// snapshots the log for a crash artifact.
type runLog struct {
	mu  sync.Mutex
	buf []byte
	max int
}

// Write implements io.Writer, keeping only the newest max bytes.
func (l *runLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if len(l.buf) > l.max {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-l.max:]...)
	}
	return len(p), nil
}

// String snapshots the captured tail.
func (l *runLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}
