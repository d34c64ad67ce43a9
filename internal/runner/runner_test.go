package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// fixture builds a test experiment from its run function.
func fixture(id string, run func(o experiments.Options) (experiments.Result, error)) experiments.Experiment {
	return experiments.Experiment{ID: id, Title: "fixture " + id, Run: run}
}

// spin drives an engine bound to the run context with a picosecond
// ticker across a 100-day window: effectively unbounded tick work that
// only the context or the step budget stops, by aborting Run.
func spin(o experiments.Options) (experiments.Result, error) {
	e := sim.NewEngine()
	e.Add(&sim.Ticker{Name: "spin", Period: sim.Picosecond, Fn: func(sim.Time) {}})
	e.SetStepBudget(o.MaxEngineSteps)
	e.Bind(o.Ctx())
	e.Run(100 * 24 * 3600 * sim.Second)
	return nil, nil
}

// The deadline must be honored promptly even when the experiment never
// checks the context itself — the bound engine aborts within one check
// window of the deadline.
func TestDeadlineHonoredInEngineHotLoop(t *testing.T) {
	cfg := Config{Timeout: 200 * time.Millisecond, Grace: 5 * time.Second, Seed: 1}
	start := time.Now()
	rep := RunOne(context.Background(), cfg, fixture("spin", spin), nil)
	if rep.Status != StatusFailed || !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Fatalf("spin report = %s / %v, want failed with DeadlineExceeded", rep.Status, rep.Err)
	}
	if rep.Abandoned {
		t.Error("cooperative spin was abandoned; engine did not honor the context")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("deadline honored only after %v", elapsed)
	}
}

func TestRetryReseedsFlaky(t *testing.T) {
	const seed = 77
	flaky := fixture("flaky", func(o experiments.Options) (experiments.Result, error) {
		if o.Seed == seed {
			return nil, fmt.Errorf("flaky failure on base seed %#x", o.Seed)
		}
		return nil, nil
	})
	rep := RunOne(context.Background(), Config{Seed: seed, Retries: 2}, flaky, nil)
	if rep.Status != StatusDone || rep.Attempts != 2 {
		t.Fatalf("flaky report = %s after %d attempts, want done after 2", rep.Status, rep.Attempts)
	}
	if rep.Seed == seed {
		t.Error("successful attempt still used the base seed; reseed policy did not apply")
	}
	// No artifact for an eventually-successful experiment.
	if rep.Artifact != nil {
		t.Error("flaky success carries a crash artifact")
	}
}

func TestRetriesExhaustArtifactListsSeeds(t *testing.T) {
	always := fixture("always", func(o experiments.Options) (experiments.Result, error) {
		return nil, fmt.Errorf("injected failure (seed %#x)", o.Seed)
	})
	rep := RunOne(context.Background(), Config{Seed: 5, Retries: 2}, always, nil)
	if rep.Status != StatusFailed || rep.Attempts != 3 {
		t.Fatalf("report = %s after %d attempts, want failed after 3", rep.Status, rep.Attempts)
	}
	a := rep.Artifact
	if a == nil {
		t.Fatal("failed report carries no crash artifact")
	}
	if len(a.AttemptSeeds) != 3 || a.AttemptSeeds[0] != 5 {
		t.Errorf("artifact attempt seeds = %v, want 3 starting at the base seed", a.AttemptSeeds)
	}
	if a.AttemptSeeds[1] == a.AttemptSeeds[0] {
		t.Error("retry did not reseed")
	}
	if !strings.Contains(a.Log, "attempt 0 failed") {
		t.Errorf("artifact log %q lacks the attempt trail", a.Log)
	}
}

func TestHardHangIsAbandonedAndRecorded(t *testing.T) {
	deadlock := fixture("deadlock", func(experiments.Options) (experiments.Result, error) {
		select {} // ignores its context; the supervisor must abandon it
	})
	cfg := Config{Timeout: 100 * time.Millisecond, Grace: 100 * time.Millisecond, Seed: 8}
	rep := RunOne(context.Background(), cfg, deadlock, nil)
	if rep.Status != StatusFailed || !errors.Is(rep.Err, ErrAbandoned) || !rep.Abandoned {
		t.Fatalf("deadlock report = %s / %v (abandoned=%v), want abandoned failure", rep.Status, rep.Err, rep.Abandoned)
	}
	a := rep.Artifact
	if a == nil {
		t.Fatal("failed report carries no crash artifact")
	}
	if !a.Abandoned {
		t.Error("artifact does not record the abandonment")
	}
}
