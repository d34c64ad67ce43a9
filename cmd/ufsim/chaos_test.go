package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Chaos specs misbehave at the orchestration boundary — they panic,
// hang, spin, or fail the way a buggy or unlucky experiment would. A
// sweep that survives the full chaos suite survives anything the real
// experiments can throw at it; chaosExperiment adapts a spec into an
// experiments.Experiment so it rides the same sweep path as the real
// ones.

// ChaosMode selects one misbehavior.
type ChaosMode int

const (
	// ChaosHealthy completes normally after a short burst of simulated
	// work (a real engine spins a few hundred ticks).
	ChaosHealthy ChaosMode = iota
	// ChaosError fails deterministically with an ordinary error.
	ChaosError
	// ChaosPanic panics mid-run.
	ChaosPanic
	// ChaosHang blocks until the run's context is cancelled and then
	// returns the context error — a cooperative hang, the shape of an
	// experiment stuck waiting on simulated progress that never comes.
	ChaosHang
	// ChaosHardHang blocks forever and ignores the context — the shape
	// of a deadlocked run. The supervisor can only abandon it; the
	// goroutine is leaked by design.
	ChaosHardHang
	// ChaosSpin runs a misconfigured engine (a picosecond-period ticker
	// across a huge window): effectively unbounded tick work, stopped
	// only by the step watchdog or the context.
	ChaosSpin
	// ChaosFlaky fails if and only if it runs with its BaseSeed — the
	// shape of a seed-sensitive failure that a reseeding retry policy
	// absorbs.
	ChaosFlaky
)

// String names the mode for labels and logs.
func (m ChaosMode) String() string {
	switch m {
	case ChaosHealthy:
		return "healthy"
	case ChaosError:
		return "error"
	case ChaosPanic:
		return "panic"
	case ChaosHang:
		return "hang"
	case ChaosHardHang:
		return "hard-hang"
	case ChaosSpin:
		return "spin"
	case ChaosFlaky:
		return "flaky"
	default:
		return fmt.Sprintf("ChaosMode(%d)", int(m))
	}
}

// ChaosSpec is one misbehaving fake experiment.
type ChaosSpec struct {
	// ID names the fake in unit IDs and artifacts.
	ID string
	// Mode selects the misbehavior.
	Mode ChaosMode
	// BaseSeed is the seed ChaosFlaky fails on; any other seed
	// succeeds.
	BaseSeed uint64
}

// Execute performs the spec's misbehavior. ctx bounds the run (honored
// by every mode except ChaosHardHang), seed is the run's seed, and
// stepBudget (when positive) arms the spun engine's watchdog so
// ChaosSpin trips sim.ErrBudgetExceeded instead of spinning until the
// deadline. On success it returns a short human-readable summary.
func (s ChaosSpec) Execute(ctx context.Context, seed uint64, stepBudget int64) (string, error) {
	switch s.Mode {
	case ChaosHealthy:
		return s.spinEngine(ctx, 512, stepBudget)
	case ChaosError:
		return "", fmt.Errorf("chaos %s: injected failure (seed %#x)", s.ID, seed)
	case ChaosPanic:
		panic(fmt.Sprintf("chaos %s: injected panic (seed %#x)", s.ID, seed))
	case ChaosHang:
		<-ctx.Done()
		return "", ctx.Err()
	case ChaosHardHang:
		select {} // unreachable exit; the supervisor must abandon us
	case ChaosSpin:
		return s.spinEngine(ctx, 0, stepBudget)
	case ChaosFlaky:
		if seed == s.BaseSeed {
			return "", fmt.Errorf("chaos %s: flaky failure on base seed %#x", s.ID, seed)
		}
		return fmt.Sprintf("chaos %s: recovered by reseed to %#x", s.ID, seed), nil
	default:
		return "", fmt.Errorf("chaos %s: unknown mode %d", s.ID, int(s.Mode))
	}
}

// spinEngine drives a private engine for ticks steps (0 = unbounded: a
// picosecond ticker across an enormous window, the runaway-simulation
// shape).
func (s ChaosSpec) spinEngine(ctx context.Context, ticks int64, stepBudget int64) (string, error) {
	e := sim.NewEngine()
	fired := int64(0)
	e.Add(&sim.Ticker{Name: "chaos-" + s.ID, Period: sim.Picosecond, Fn: func(sim.Time) { fired++ }})
	window := sim.Time(ticks)
	if ticks <= 0 {
		e.SetStepBudget(stepBudget)
		window = 100 * 24 * 3600 * sim.Second
	}
	if err := e.RunContext(ctx, window); err != nil {
		return "", err
	}
	return fmt.Sprintf("chaos %s: completed %d ticks", s.ID, fired), nil
}

// chaosResult is the trivial Result chaos experiments render.
type chaosResult string

// Render implements experiments.Result.
func (r chaosResult) Render(w io.Writer) error {
	_, err := fmt.Fprintln(w, string(r))
	return err
}

// chaosExperiment adapts a ChaosSpec into an Experiment.
func chaosExperiment(spec ChaosSpec) experiments.Experiment {
	return experiments.Experiment{
		ID:    spec.ID,
		Title: "chaos: " + spec.Mode.String(),
		Run: func(o experiments.Options) (experiments.Result, error) {
			msg, err := spec.Execute(o.Ctx(), o.Seed, o.MaxEngineSteps)
			if err != nil {
				return nil, err
			}
			return chaosResult(msg), nil
		},
	}
}

func TestChaosHealthyCompletes(t *testing.T) {
	msg, err := ChaosSpec{ID: "ok", Mode: ChaosHealthy}.Execute(context.Background(), 1, 0)
	if err != nil {
		t.Fatalf("healthy: %v", err)
	}
	if !strings.Contains(msg, "512 ticks") {
		t.Errorf("healthy message = %q, want a 512-tick completion", msg)
	}
}

func TestChaosErrorAndFlaky(t *testing.T) {
	if _, err := (ChaosSpec{ID: "boom", Mode: ChaosError}).Execute(context.Background(), 7, 0); err == nil {
		t.Fatal("error mode returned nil error")
	}
	flaky := ChaosSpec{ID: "fl", Mode: ChaosFlaky, BaseSeed: 42}
	if _, err := flaky.Execute(context.Background(), 42, 0); err == nil {
		t.Fatal("flaky succeeded on its base seed")
	}
	if _, err := flaky.Execute(context.Background(), 43, 0); err != nil {
		t.Fatalf("flaky failed on a reseed: %v", err)
	}
}

func TestChaosPanicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic mode did not panic")
		}
	}()
	ChaosSpec{ID: "p", Mode: ChaosPanic}.Execute(context.Background(), 1, 0)
}

func TestChaosHangHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := ChaosSpec{ID: "h", Mode: ChaosHang}.Execute(ctx, 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang under deadline = %v, want DeadlineExceeded", err)
	}
}

func TestChaosSpinTripsStepBudget(t *testing.T) {
	_, err := ChaosSpec{ID: "s", Mode: ChaosSpin}.Execute(context.Background(), 1, 50_000)
	if !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("spin under budget = %v, want ErrBudgetExceeded", err)
	}
}

func TestChaosSpinHonorsDeadlineWithoutBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ChaosSpec{ID: "s", Mode: ChaosSpin}.Execute(ctx, 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spin under deadline = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("spin ran %v past a 30ms deadline", elapsed)
	}
}
