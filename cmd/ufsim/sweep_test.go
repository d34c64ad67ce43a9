package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweepd"
)

// lockedBuffer is a bytes.Buffer safe for the concurrent writers a
// sweep has (coordinator, workers, reporter).
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// chaosSuite is a catalog of test experiments for `ufsim -experiment`
// sweeps, counting how often each one actually ran (as opposed to being
// restored done from the journal on resume).
type chaosSuite struct {
	exps   map[string]experiments.Experiment
	ids    []string
	counts map[string]*atomic.Int64
}

func newChaosSuite(specs ...ChaosSpec) *chaosSuite {
	s := &chaosSuite{exps: map[string]experiments.Experiment{}, counts: map[string]*atomic.Int64{}}
	for _, spec := range specs {
		s.add(chaosExperiment(spec))
	}
	return s
}

func (s *chaosSuite) add(e experiments.Experiment) {
	n := &atomic.Int64{}
	inner := e.Run
	e.Run = func(o experiments.Options) (experiments.Result, error) {
		n.Add(1)
		return inner(o)
	}
	s.exps[e.ID] = e
	s.ids = append(s.ids, e.ID)
	s.counts[e.ID] = n
}

func (s *chaosSuite) lookup(id string) (experiments.Experiment, bool) {
	e, ok := s.exps[id]
	return e, ok
}

// options is a one-worker sweep over the whole suite.
func (s *chaosSuite) options(seed uint64) experimentOptions {
	return experimentOptions{
		id: "all", ids: s.ids, seed: seed, jobs: 1,
		lookup: s.lookup, stdout: &lockedBuffer{}, stderr: &lockedBuffer{},
	}
}

// readMergedManifest returns each unit's status in dir's merged
// manifest.
func readMergedManifest(t *testing.T, dir string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, sweepd.MergedManifestName))
	if err != nil {
		t.Fatalf("merged manifest: %v", err)
	}
	var doc struct {
		Experiments map[string]struct{ Status string } `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged manifest: %v", err)
	}
	status := map[string]string{}
	for id, e := range doc.Experiments {
		status[id] = e.Status
	}
	return status
}

// crashPath is where the coordinator keeps a unit's first crash
// artifact under dir.
func crashPath(dir, id string) string {
	return filepath.Join(dir, id+".1.crash.json")
}

// readArtifact loads a crash artifact.
func readArtifact(path string) (runner.Artifact, error) {
	var a runner.Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	err = json.Unmarshal(data, &a)
	return a, err
}

// TestChaosSweep is the acceptance scenario: a sweep over healthy,
// panicking, erroring, hanging, and spinning experiments completes all
// healthy work, records one crash artifact per failure, honors per-run
// deadlines, and a second -resume invocation re-runs only the failures.
func TestChaosSweep(t *testing.T) {
	dir, out := t.TempDir(), t.TempDir()
	s := newChaosSuite(
		ChaosSpec{ID: "ok-a", Mode: ChaosHealthy},
		ChaosSpec{ID: "ok-b", Mode: ChaosHealthy},
		ChaosSpec{ID: "ok-c", Mode: ChaosHealthy},
		ChaosSpec{ID: "bad-panic", Mode: ChaosPanic},
		ChaosSpec{ID: "bad-error", Mode: ChaosError},
		ChaosSpec{ID: "bad-hang", Mode: ChaosHang},
		ChaosSpec{ID: "bad-spin", Mode: ChaosSpin},
	)
	o := s.options(99)
	o.jobs, o.keepGoing, o.out, o.artifacts = 4, true, out, dir
	o.base = runner.Config{
		Timeout:        300 * time.Millisecond,
		Grace:          300 * time.Millisecond,
		MaxEngineSteps: 50_000,
	}
	if code := runSweep(context.Background(), experimentSweep(o)); code != exitFailures {
		t.Fatalf("chaos sweep exited %d, want %d; stderr:\n%s", code, exitFailures, o.stderr)
	}
	if log := o.stderr.(*lockedBuffer).String(); !strings.Contains(log, "done=3 quarantined=4 pending=0") {
		t.Fatalf("summary missing from stderr:\n%s", log)
	}

	status := readMergedManifest(t, dir)
	healthy := []string{"ok-a", "ok-b", "ok-c"}
	failing := []string{"bad-panic", "bad-error", "bad-hang", "bad-spin"}
	for _, id := range healthy {
		if status[id] != "done" {
			t.Errorf("%s: status %q, want done", id, status[id])
		}
		report, err := os.ReadFile(filepath.Join(out, id+".txt"))
		if err != nil || !strings.Contains(string(report), "512 ticks") {
			t.Errorf("%s: -out report %q (%v)", id, report, err)
		}
		if _, err := os.Stat(crashPath(dir, id)); !os.IsNotExist(err) {
			t.Errorf("healthy %s has a crash artifact", id)
		}
	}
	for _, id := range failing {
		if status[id] != "failed" {
			t.Errorf("%s: status %q, want failed", id, status[id])
		}
		if _, err := os.Stat(sweepd.QuarantinePath(dir, sweepd.UnitID(id))); err != nil {
			t.Errorf("%s: no quarantine artifact: %v", id, err)
		}
	}

	// One crash artifact per failure, carrying a usable replay line and
	// the failure's classification.
	if crashes, _ := filepath.Glob(filepath.Join(dir, "*.crash.json")); len(crashes) != len(failing) {
		t.Errorf("crash artifacts %v, want one per failure", crashes)
	}
	for _, id := range failing {
		a, err := readArtifact(crashPath(dir, id))
		if err != nil {
			t.Errorf("%s: reading artifact: %v", id, err)
			continue
		}
		if a.Experiment != id || a.Error == "" || !strings.Contains(a.Replay, "-experiment "+id) {
			t.Errorf("%s: artifact incomplete: %+v", id, a)
		}
		switch id {
		case "bad-panic":
			if !a.Panic || !strings.Contains(a.Stack, "chaos") {
				t.Errorf("bad-panic artifact lacks panic classification or a stack through the chaos callee")
			}
		case "bad-hang":
			if !strings.Contains(a.Error, context.DeadlineExceeded.Error()) {
				t.Errorf("bad-hang error = %q, want the deadline", a.Error)
			}
		case "bad-spin":
			if !strings.Contains(a.Error, sim.ErrBudgetExceeded.Error()) {
				t.Errorf("bad-spin error = %q, want the step budget (the watchdog, not the deadline)", a.Error)
			}
		}
	}

	// Resume: only the failures re-run.
	before := map[string]int64{}
	for id, n := range s.counts {
		before[id] = n.Load()
	}
	o.resume = true
	o.stdout, o.stderr = &lockedBuffer{}, &lockedBuffer{}
	if code := runSweep(context.Background(), experimentSweep(o)); code != exitFailures {
		t.Fatalf("resumed chaos sweep exited %d, want %d", code, exitFailures)
	}
	for _, id := range healthy {
		if got := s.counts[id].Load(); got != before[id] {
			t.Errorf("%s re-ran on resume (%d -> %d runs)", id, before[id], got)
		}
	}
	for _, id := range failing {
		if got := s.counts[id].Load(); got != before[id]+1 {
			t.Errorf("%s ran %d times on resume, want exactly one more", id, got-before[id])
		}
	}
	if got := o.stdout.(*lockedBuffer).String(); got != "" {
		t.Errorf("resume printed reports for units it did not run:\n%s", got)
	}
}

func TestFirstFailureStopsSweepWithoutKeepGoing(t *testing.T) {
	s := newChaosSuite(
		ChaosSpec{ID: "a-fails", Mode: ChaosError},
		ChaosSpec{ID: "b-ok", Mode: ChaosHealthy},
		ChaosSpec{ID: "c-ok", Mode: ChaosHealthy},
	)
	o := s.options(3)
	if code := runSweep(context.Background(), experimentSweep(o)); code != exitFailures {
		t.Fatalf("exit %d, want %d", code, exitFailures)
	}
	if s.counts["b-ok"].Load() != 0 || s.counts["c-ok"].Load() != 0 {
		t.Error("experiments after the failure still ran without -keep-going")
	}
	log := o.stderr.(*lockedBuffer).String()
	for _, want := range []string{"a-fails failed after 1 attempt(s)", "done=0 quarantined=1 pending=2"} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr lacks %q:\n%s", want, log)
		}
	}
}

// Cancelling the parent context (the abort path) leaves the remaining
// experiments unrun but still produces a full summary.
func TestParentCancelSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newChaosSuite()
	s.add(experiments.Experiment{ID: "gate", Title: "blocks until cancelled", Run: func(o experiments.Options) (experiments.Result, error) {
		cancel()
		<-o.Ctx().Done()
		return nil, o.Ctx().Err()
	}})
	s.add(chaosExperiment(ChaosSpec{ID: "later-a", Mode: ChaosHealthy}))
	s.add(chaosExperiment(ChaosSpec{ID: "later-b", Mode: ChaosHealthy}))
	o := s.options(4)
	o.keepGoing = true
	if code := runSweep(ctx, experimentSweep(o)); code != exitSignal {
		t.Fatalf("exit %d, want %d", code, exitSignal)
	}
	if s.counts["later-a"].Load() != 0 || s.counts["later-b"].Load() != 0 {
		t.Error("experiments ran after cancellation")
	}
	log := o.stderr.(*lockedBuffer).String()
	for _, want := range []string{"gate skipped", "done=0 quarantined=0 pending=3 leased=0"} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr lacks %q:\n%s", want, log)
		}
	}
}

// State recorded under a different seed must not satisfy a resume.
func TestResumeIgnoresMismatchedSeed(t *testing.T) {
	dir := t.TempDir()
	s := newChaosSuite(ChaosSpec{ID: "ok", Mode: ChaosHealthy})
	o := s.options(1)
	o.artifacts = dir
	if code := runSweep(context.Background(), experimentSweep(o)); code != exitOK {
		t.Fatalf("first sweep exited %d", code)
	}
	o.seed, o.resume = 2, true
	if code := runSweep(context.Background(), experimentSweep(o)); code != exitOK {
		t.Fatalf("resumed sweep exited %d", code)
	}
	if n := s.counts["ok"].Load(); n != 2 {
		t.Fatalf("mismatched-seed resume reused the recorded outcome (%d runs, want 2)", n)
	}
}

// A worker without a local scratch dir still ships its crash artifact:
// the coordinator's record must carry the replay line and the error.
func TestRunnerShipsArtifactWithoutScratchDir(t *testing.T) {
	s := newChaosSuite(ChaosSpec{ID: "boom", Mode: ChaosError})
	run := experimentRunner(runner.Config{}, s.lookup)
	res := run(context.Background(), sweepd.Unit{ID: "boom", Experiment: "boom", Seed: 5, Quick: true}, func(string) {})
	if res.OK {
		t.Fatal("the failing unit succeeded")
	}
	var a runner.Artifact
	if err := json.Unmarshal(res.Artifact, &a); err != nil {
		t.Fatalf("shipped artifact %q: %v", res.Artifact, err)
	}
	if a.Error == "" || a.Replay != "ufsim -experiment boom -seed 0x5 -quick" {
		t.Errorf("shipped artifact lacks the error or the replay line: %+v", a)
	}
}

// TestFinalStatusOnStateFS: status-final.json goes through the sweep's
// state filesystem like every other state-dir file, not around it.
func TestFinalStatusOnStateFS(t *testing.T) {
	s := newChaosSuite(ChaosSpec{ID: "ok", Mode: ChaosHealthy})
	o := s.options(1)
	o.artifacts = filepath.Join(t.TempDir(), "state")
	spec := experimentSweep(o)
	mem := faults.NewDiskFS(1)
	spec.coord.FS = mem
	if code := runSweep(context.Background(), spec); code != exitOK {
		t.Fatalf("sweep exited %d; stderr:\n%s", code, o.stderr)
	}
	data, err := mem.ReadFile(filepath.Join(o.artifacts, "status-final.json"))
	if err != nil || !strings.Contains(string(data), `"done": 1`) {
		t.Fatalf("status-final.json on the state FS: %q, %v", data, err)
	}
	if _, err := os.Stat(o.artifacts); !os.IsNotExist(err) {
		t.Fatalf("the sweep wrote around its state FS onto the real disk (stat: %v)", err)
	}
}
