package runner

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sim"
)

// counted wraps an experiment so tests can assert how many times it
// actually ran (as opposed to being satisfied from the resume manifest).
func counted(e experiments.Experiment, n *atomic.Int64) experiments.Experiment {
	inner := e.Run
	e.Run = func(o experiments.Options) (experiments.Result, error) {
		n.Add(1)
		return inner(o)
	}
	return e
}

func chaosSuite(seed uint64, counts map[string]*atomic.Int64) []experiments.Experiment {
	specs := []faults.ChaosSpec{
		{ID: "ok-a", Mode: faults.ChaosHealthy},
		{ID: "ok-b", Mode: faults.ChaosHealthy},
		{ID: "ok-c", Mode: faults.ChaosHealthy},
		{ID: "bad-panic", Mode: faults.ChaosPanic},
		{ID: "bad-error", Mode: faults.ChaosError},
		{ID: "bad-hang", Mode: faults.ChaosHang},
		{ID: "bad-spin", Mode: faults.ChaosSpin},
	}
	var exps []experiments.Experiment
	for _, s := range specs {
		n := &atomic.Int64{}
		counts[s.ID] = n
		exps = append(exps, counted(ChaosExperiment(s), n))
	}
	return exps
}

// TestChaosSweep is the acceptance scenario: a sweep over healthy,
// panicking, erroring, hanging, and spinning experiments completes all
// healthy work, records one crash artifact per failure, honors per-run
// deadlines, and a second -resume invocation re-runs only the failures.
func TestChaosSweep(t *testing.T) {
	dir := t.TempDir()
	counts := map[string]*atomic.Int64{}
	exps := chaosSuite(99, counts)
	cfg := Config{
		Jobs:           4,
		Timeout:        300 * time.Millisecond,
		Grace:          300 * time.Millisecond,
		KeepGoing:      true,
		Seed:           99,
		MaxEngineSteps: 50_000,
		ArtifactDir:    dir,
	}
	sum, err := Run(context.Background(), cfg, exps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Done != 3 || sum.Failed != 4 || sum.Skipped != 0 {
		t.Fatalf("summary = %v, want 3 done / 4 failed / 0 skipped", sum)
	}

	byID := map[string]Report{}
	for _, r := range sum.Reports {
		byID[r.ID] = r
	}
	for _, id := range []string{"ok-a", "ok-b", "ok-c"} {
		if byID[id].Status != StatusDone || byID[id].Result == nil {
			t.Errorf("%s: status=%s result=%v, want done with result", id, byID[id].Status, byID[id].Result)
		}
	}
	// Failure classification.
	var pe *PanicError
	if r := byID["bad-panic"]; !errors.As(r.Err, &pe) {
		t.Errorf("bad-panic err = %v, want *PanicError", r.Err)
	} else if !strings.Contains(string(pe.Stack), "chaos") {
		t.Error("panic stack does not mention the chaos callee")
	}
	if r := byID["bad-hang"]; !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Errorf("bad-hang err = %v, want DeadlineExceeded", r.Err)
	}
	if r := byID["bad-spin"]; !errors.Is(r.Err, sim.ErrBudgetExceeded) {
		t.Errorf("bad-spin err = %v, want ErrBudgetExceeded (the step watchdog, not the deadline)", r.Err)
	}

	// One crash artifact per failure, carrying a usable replay line.
	for _, id := range []string{"bad-panic", "bad-error", "bad-hang", "bad-spin"} {
		rep := byID[id]
		if rep.Artifact == "" {
			t.Errorf("%s: no crash artifact recorded", id)
			continue
		}
		a, err := ReadArtifact(rep.Artifact)
		if err != nil {
			t.Errorf("%s: reading artifact: %v", id, err)
			continue
		}
		if a.Experiment != id || a.Error == "" || !strings.Contains(a.Replay, "-experiment "+id) {
			t.Errorf("%s: artifact incomplete: %+v", id, a)
		}
		if id == "bad-panic" && (!a.Panic || a.Stack == "") {
			t.Errorf("bad-panic artifact lacks panic classification or stack")
		}
	}
	if _, err := os.Stat(ArtifactPath(dir, "ok-a")); !os.IsNotExist(err) {
		t.Error("healthy experiment has a crash artifact")
	}

	// Resume: only the failures re-run.
	before := map[string]int64{}
	for id, n := range counts {
		before[id] = n.Load()
	}
	cfg.Resume = true
	sum2, err := Run(context.Background(), cfg, exps)
	if err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if sum2.Done != 3 || sum2.Cached != 3 || sum2.Failed != 4 {
		t.Fatalf("resume summary = %v, want 3 done (3 cached) / 4 failed", sum2)
	}
	for _, id := range []string{"ok-a", "ok-b", "ok-c"} {
		if got := counts[id].Load(); got != before[id] {
			t.Errorf("%s re-ran on resume (%d -> %d runs)", id, before[id], got)
		}
	}
	for _, id := range []string{"bad-panic", "bad-error", "bad-hang", "bad-spin"} {
		if got := counts[id].Load(); got != before[id]+1 {
			t.Errorf("%s ran %d times on resume, want exactly one more", id, got-before[id])
		}
	}
}

// The deadline must be honored promptly even when the experiment never
// checks the context itself — the bound engine aborts within one check
// window of the deadline.
func TestDeadlineHonoredInEngineHotLoop(t *testing.T) {
	exps := []experiments.Experiment{ChaosExperiment(faults.ChaosSpec{ID: "spin", Mode: faults.ChaosSpin})}
	cfg := Config{Timeout: 200 * time.Millisecond, Grace: 5 * time.Second, Seed: 1}
	start := time.Now()
	sum, err := Run(context.Background(), cfg, exps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := sum.Reports[0]
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
	exps := []experiments.Experiment{ChaosExperiment(faults.ChaosSpec{ID: "flaky", Mode: faults.ChaosFlaky, BaseSeed: seed})}
	sum, err := Run(context.Background(), Config{Seed: seed, Retries: 2, ArtifactDir: t.TempDir()}, exps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := sum.Reports[0]
	if rep.Status != StatusDone || rep.Attempts != 2 {
		t.Fatalf("flaky report = %s after %d attempts, want done after 2", rep.Status, rep.Attempts)
	}
	if rep.Seed == seed {
		t.Error("successful attempt still used the base seed; reseed policy did not apply")
	}
	// No artifact for an eventually-successful experiment.
	if _, err := os.Stat(ArtifactPath(t.TempDir(), "flaky")); !os.IsNotExist(err) {
		t.Error("flaky success left a crash artifact")
	}
}

func TestRetriesExhaustArtifactListsSeeds(t *testing.T) {
	dir := t.TempDir()
	exps := []experiments.Experiment{ChaosExperiment(faults.ChaosSpec{ID: "always", Mode: faults.ChaosError})}
	sum, err := Run(context.Background(), Config{Seed: 5, Retries: 2, KeepGoing: true, ArtifactDir: dir}, exps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := sum.Reports[0]
	if rep.Status != StatusFailed || rep.Attempts != 3 {
		t.Fatalf("report = %s after %d attempts, want failed after 3", rep.Status, rep.Attempts)
	}
	a, err := ReadArtifact(rep.Artifact)
	if err != nil {
		t.Fatalf("artifact: %v", err)
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

func TestFirstFailureStopsSweepWithoutKeepGoing(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	var exps []experiments.Experiment
	for _, s := range []faults.ChaosSpec{
		{ID: "a-fails", Mode: faults.ChaosError},
		{ID: "b-ok", Mode: faults.ChaosHealthy},
		{ID: "c-ok", Mode: faults.ChaosHealthy},
	} {
		n := &atomic.Int64{}
		counts[s.ID] = n
		exps = append(exps, counted(ChaosExperiment(s), n))
	}
	sum, err := Run(context.Background(), Config{Jobs: 1, Seed: 3}, exps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Failed != 1 || sum.Skipped != 2 || sum.Done != 0 {
		t.Fatalf("summary = %v, want 1 failed / 2 skipped", sum)
	}
	if counts["b-ok"].Load() != 0 || counts["c-ok"].Load() != 0 {
		t.Error("experiments after the failure still ran without -keep-going")
	}
	if _, ok := sum.FirstFailure(); !ok {
		t.Error("FirstFailure found nothing")
	}
}

func TestHardHangIsAbandonedAndRecorded(t *testing.T) {
	dir := t.TempDir()
	exps := []experiments.Experiment{ChaosExperiment(faults.ChaosSpec{ID: "deadlock", Mode: faults.ChaosHardHang})}
	cfg := Config{Timeout: 100 * time.Millisecond, Grace: 100 * time.Millisecond, KeepGoing: true, ArtifactDir: dir, Seed: 8}
	sum, err := Run(context.Background(), cfg, exps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := sum.Reports[0]
	if rep.Status != StatusFailed || !errors.Is(rep.Err, ErrAbandoned) || !rep.Abandoned {
		t.Fatalf("deadlock report = %s / %v (abandoned=%v), want abandoned failure", rep.Status, rep.Err, rep.Abandoned)
	}
	a, err := ReadArtifact(rep.Artifact)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if !a.Abandoned {
		t.Error("artifact does not record the abandonment")
	}
}

// Cancelling the parent context (the SIGINT path) skips the remaining
// experiments but still produces a full summary.
func TestParentCancelSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	gate := experiments.Experiment{ID: "gate", Title: "blocks until cancelled", Run: func(o experiments.Options) (experiments.Result, error) {
		close(release)
		<-o.Ctx().Done()
		return nil, o.Ctx().Err()
	}}
	rest := []experiments.Experiment{
		ChaosExperiment(faults.ChaosSpec{ID: "later-a", Mode: faults.ChaosHealthy}),
		ChaosExperiment(faults.ChaosSpec{ID: "later-b", Mode: faults.ChaosHealthy}),
	}
	go func() {
		<-release
		cancel()
	}()
	sum, err := Run(ctx, Config{Jobs: 1, KeepGoing: true, Seed: 4}, append([]experiments.Experiment{gate}, rest...))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Skipped != 3 || sum.Done != 0 || sum.Failed != 0 {
		t.Fatalf("summary = %v, want all 3 skipped on cancellation", sum)
	}
}

// A manifest recorded under a different seed must not satisfy a resume.
func TestResumeIgnoresMismatchedManifest(t *testing.T) {
	dir := t.TempDir()
	n := &atomic.Int64{}
	exps := []experiments.Experiment{counted(ChaosExperiment(faults.ChaosSpec{ID: "ok", Mode: faults.ChaosHealthy}), n)}
	if _, err := Run(context.Background(), Config{Seed: 1, ArtifactDir: dir}, exps); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	sum, err := Run(context.Background(), Config{Seed: 2, ArtifactDir: dir, Resume: true}, exps)
	if err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if sum.Cached != 0 || n.Load() != 2 {
		t.Fatalf("mismatched-seed resume reused the manifest (cached=%d runs=%d)", sum.Cached, n.Load())
	}
}
