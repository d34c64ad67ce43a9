package sweepd

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestChaosExactlyOnceOrQuarantined is the headline robustness proof:
// a fleet of workers runs a sweep through a transport that drops,
// delays, duplicates, and partitions requests, while a kill schedule
// murders workers mid-trial and the fleet respawns replacements. Under
// all of that, every unit must end the sweep either
//
//   - done, merged into the results exactly once (executions may repeat
//     — that is what leases are for — but the merge may not), or
//   - explicitly quarantined with its failure history preserved on disk.
//
// Three poison units fail deterministically on every worker; they must
// be the quarantined ones.
func TestChaosExactlyOnceOrQuarantined(t *testing.T) {
	const nUnits = 36
	units := testUnits(nUnits)
	poison := map[UnitID]bool{"u03": true, "u17": true, "u29": true}

	dir := t.TempDir()
	c, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:        250 * time.Millisecond,
		ExpiryBudget:    40, // expiries here are chaos, not poison
		QuarantineAfter: 3,
		RetryBase:       5 * time.Millisecond,
		RetryJitter:     5 * time.Millisecond,
		Seed:            0xC0FFEE,
		StateDir:        dir,
	}, units)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}

	plan := faults.NewNetPlan(faults.DefaultNetConfig(0.5, 0), 0xC0FFEE)
	var mu sync.Mutex
	exec := map[UnitID]int{}
	newRunner := func(workerID string) UnitRunner {
		return func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			mu.Lock()
			exec[u.ID]++
			mu.Unlock()
			progress("warmup")           // first checkpoint: where kills land
			time.Sleep(time.Millisecond) // a sliver of real work
			progress("measuring")
			if poison[u.ID] {
				return UnitResult{Error: "poison unit", Attempts: 1}
			}
			return UnitResult{OK: true, Result: "ok " + string(u.ID), Attempts: 1}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep := RunFleet(ctx, c, FleetConfig{
		Workers: 4, Jobs: 2,
		NewRunner: newRunner,
		Plan:      plan, MaxRespawns: 200,
		PollMax: 100 * time.Millisecond,
	})
	if ctx.Err() != nil {
		t.Fatalf("chaos sweep timed out; fleet=%+v stats=%+v snapshot=%+v", rep, plan.Stats(), c.Snapshot())
	}
	select {
	case <-c.Done():
	default:
		t.Fatalf("fleet returned but sweep not done: fleet=%+v snapshot=%+v", rep, c.Snapshot())
	}

	st := c.Snapshot()
	mu.Lock()
	defer mu.Unlock()
	for _, u := range st.Units {
		id := u.Unit.ID
		switch {
		case poison[id]:
			if u.State != UnitQuarantined {
				t.Errorf("poison %s ended %s, want quarantined (%+v)", id, u.State, u)
				continue
			}
			if _, err := os.Stat(QuarantinePath(dir, id)); err != nil {
				t.Errorf("poison %s quarantined without artifact: %v", id, err)
			}
			if len(u.Failures) < 3 {
				t.Errorf("poison %s quarantined with %d failures on record, want >=3", id, len(u.Failures))
			}
		case u.State == UnitDone:
			if u.Completions != 1 {
				t.Errorf("%s merged %d times, want exactly 1", id, u.Completions)
			}
			if exec[id] < 1 {
				t.Errorf("%s done but never executed", id)
			}
		case u.State == UnitQuarantined:
			// Legal under extreme chaos (expiry budget exhausted), but it
			// must be explicit: artifact on disk, history preserved.
			if _, err := os.Stat(QuarantinePath(dir, id)); err != nil {
				t.Errorf("%s quarantined without artifact: %v", id, err)
			}
		default:
			t.Errorf("%s ended non-terminal: %+v", id, u)
		}
	}

	// The fault mix must actually have exercised the hard paths: drops
	// (retry), dropped responses (duplicate delivery), duplicates, and
	// kills (lease expiry + respawn). Deterministic in the plan seed.
	stats := plan.Stats()
	if stats.DroppedRequests == 0 || stats.DroppedResponses == 0 || stats.Duplicates == 0 {
		t.Errorf("fault mix too tame to prove anything: %+v", stats)
	}
	if rep.Killed == 0 {
		t.Errorf("no worker was killed mid-trial: %+v (stats %+v)", rep, stats)
	}
	t.Logf("chaos: fleet=%+v stats=%+v executions=%d units", rep, stats, len(exec))
}

// TestFleetResumeAfterCoordinatorCrash kills the coordinator mid-sweep
// (with leases in flight), then resumes from its state dir with a fresh
// fleet: units that merged before the crash must not run again, and the
// resumed sweep must finish everything else.
func TestFleetResumeAfterCoordinatorCrash(t *testing.T) {
	units := testUnits(12)
	dir := t.TempDir()

	c1, err := NewCoordinator(CoordinatorConfig{StateDir: dir}, units)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	var muA sync.Mutex
	execA := map[UnitID]int{}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	go func() {
		// Pull the plug once about half the sweep has merged.
		for {
			if c1.Snapshot().Done >= 5 {
				cancelA()
				return
			}
			select {
			case <-ctxA.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	RunFleet(ctxA, c1, FleetConfig{
		Workers: 2, Jobs: 1,
		NewRunner: func(workerID string) UnitRunner {
			return func(ctx context.Context, u Unit, progress func(string)) UnitResult {
				muA.Lock()
				execA[u.ID]++
				muA.Unlock()
				time.Sleep(time.Millisecond)
				if ctx.Err() != nil {
					return UnitResult{Error: "aborted"}
				}
				return UnitResult{OK: true, Result: "phase A"}
			}
		},
	})
	doneA := map[UnitID]bool{}
	for _, u := range c1.Snapshot().Units {
		if u.State == UnitDone {
			doneA[u.Unit.ID] = true
		}
	}
	if len(doneA) < 5 {
		t.Fatalf("phase A merged only %d units", len(doneA))
	}

	// "Crash": c1 is gone; a new coordinator resumes from the state dir.
	c2, err := NewCoordinator(CoordinatorConfig{StateDir: dir, Resume: true}, units)
	if err != nil {
		t.Fatalf("resume NewCoordinator: %v", err)
	}
	var muB sync.Mutex
	execB := map[UnitID]int{}
	ctxB, cancelB := context.WithTimeout(context.Background(), time.Minute)
	defer cancelB()
	RunFleet(ctxB, c2, FleetConfig{
		Workers: 2, Jobs: 1,
		NewRunner: func(workerID string) UnitRunner {
			return func(ctx context.Context, u Unit, progress func(string)) UnitResult {
				muB.Lock()
				execB[u.ID]++
				muB.Unlock()
				return UnitResult{OK: true, Result: "phase B"}
			}
		},
	})
	select {
	case <-c2.Done():
	default:
		t.Fatalf("resumed sweep not done: %+v", c2.Snapshot())
	}

	st := c2.Snapshot()
	if st.Done != len(units) {
		t.Fatalf("resumed sweep finished with done=%d, want %d (%+v)", st.Done, len(units), st)
	}
	muB.Lock()
	defer muB.Unlock()
	for id := range doneA {
		if execB[id] != 0 {
			t.Errorf("%s was done before the crash but re-ran %d times after resume", id, execB[id])
		}
	}
	for _, u := range units {
		if !doneA[u.ID] && execB[u.ID] != 1 {
			t.Errorf("unfinished unit %s ran %d times in phase B, want 1", u.ID, execB[u.ID])
		}
	}
}

// syncLog is a log sink safe for the coordinator's concurrent writers.
type syncLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestFleetKillIsACrash: a chaos kill looks to the coordinator exactly
// like a dead process. After w1 dies at its first checkpoint, none of
// its calls — heartbeat, release, completion — reaches the coordinator
// (its runner even returns a success, which a crashed process never
// could report), so its lease expires and the respawned w2 runs the
// unit.
func TestFleetKillIsACrash(t *testing.T) {
	plan := faults.NewNetPlan(faults.NetConfig{KillEveryUnits: 2}, 4)
	if plan.KillAfterUnits("w1") != 1 || plan.KillAfterUnits("w2") != 2 {
		t.Fatal("plan seed no longer kills w1 at its first unit and spares w2's")
	}
	var log syncLog
	c, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL: 600 * time.Millisecond, RetryBase: 5 * time.Millisecond, RetryJitter: 5 * time.Millisecond,
		Log: &log,
	}, testUnits(1))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	afterKill := make(chan UnitStatus, 1)
	newRunner := func(id string) UnitRunner {
		return func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			if id == "w1" {
				progress("warmup") // the kill fires here
				<-ctx.Done()
				// Outlive a heartbeat interval (TTL/3): a live worker
				// would have extended its lease by now.
				time.Sleep(250 * time.Millisecond)
				afterKill <- c.Snapshot().Units[0]
			}
			return UnitResult{OK: true, Result: "ok from " + id, Attempts: 1}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep := RunFleet(ctx, c, FleetConfig{
		Workers: 1, Jobs: 1, NewRunner: newRunner, Plan: plan, PollMax: 50 * time.Millisecond,
	})
	if rep.Killed != 1 || rep.Spawned != 2 {
		t.Fatalf("fleet report %+v, want one kill and one respawn", rep)
	}
	if u := <-afterKill; u.Worker != "w1" || u.State != UnitLeased || u.Heartbeats != 0 {
		t.Errorf("after the kill the unit is %+v, want still leased to w1 with no heartbeat", u)
	}
	u := c.Snapshot().Units[0]
	if u.State != UnitDone || u.Completions != 1 || u.Expiries != 1 {
		t.Errorf("unit ended %+v, want done once after one lease expiry", u)
	}
	got := log.String()
	for _, bad := range []string{"w1 released", "done by w1", "failed on w1"} {
		if strings.Contains(got, bad) {
			t.Errorf("a call from the killed worker reached the coordinator (%q):\n%s", bad, got)
		}
	}
	for _, want := range []string{"lease on u00 by w1 expired", "u00 done by w2"} {
		if !strings.Contains(got, want) {
			t.Errorf("coordinator log lacks %q:\n%s", want, got)
		}
	}
}
