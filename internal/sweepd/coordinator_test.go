package sweepd

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testUnits builds n pending units u00..u(n-1).
func testUnits(n int) []Unit {
	var units []Unit
	for i := 0; i < n; i++ {
		units = append(units, Unit{
			ID:         UnitID(fmt.Sprintf("u%02d", i)),
			Experiment: "exp",
			Seed:       0x5eed,
			Quick:      true,
		})
	}
	return units
}

// newTestCoordinator builds a coordinator on a manual clock with no
// retry jitter, so every reassignment instant is exact.
func newTestCoordinator(t *testing.T, clk *ManualClock, mutate func(*CoordinatorConfig), units []Unit) *Coordinator {
	t.Helper()
	cfg := CoordinatorConfig{
		LeaseTTL:        time.Minute,
		ExpiryBudget:    3,
		QuarantineAfter: 3,
		RetryBase:       time.Second,
		RetryJitter:     0,
		Clock:           clk,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCoordinator(cfg, units)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

func leaseOne(t *testing.T, c *Coordinator, worker string) LeasedUnit {
	t.Helper()
	resp := c.Lease(LeaseRequest{Worker: worker, Max: 1})
	if len(resp.Units) != 1 {
		t.Fatalf("%s: wanted 1 lease, got %+v", worker, resp)
	}
	return resp.Units[0]
}

func unitState(t *testing.T, c *Coordinator, id UnitID) UnitStatus {
	t.Helper()
	for _, u := range c.Snapshot().Units {
		if u.Unit.ID == id {
			return u
		}
	}
	t.Fatalf("unit %s not in snapshot", id)
	return UnitStatus{}
}

// TestLeaseExpiryReassignment is the satellite contract: a worker that
// leases a unit and goes silent has its unit re-leased exactly once per
// retry budget — at the exact TTL+backoff instants — and the unit is
// quarantined when the expiry budget runs out. Pure manual clock, no
// real sleeps.
func TestLeaseExpiryReassignment(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dir := t.TempDir()
	c := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) { cfg.StateDir = dir }, testUnits(1))

	lu := leaseOne(t, c, "silent-1")
	if lu.Epoch != 1 {
		t.Fatalf("first lease epoch = %d, want 1", lu.Epoch)
	}

	// Just under the TTL: nothing to reassign.
	clk.Advance(59 * time.Second)
	if resp := c.Lease(LeaseRequest{Worker: "eager", Max: 1}); len(resp.Units) != 0 {
		t.Fatalf("lease before expiry granted %+v", resp.Units)
	}

	// Cross the TTL: the lease expires (1/3), but the unit sits in its
	// first backoff window (1s) — still not grantable.
	clk.Advance(2 * time.Second)
	if resp := c.Lease(LeaseRequest{Worker: "eager", Max: 1}); len(resp.Units) != 0 {
		t.Fatalf("lease inside backoff granted %+v", resp.Units)
	} else if resp.RetryAfterMillis <= 0 {
		t.Fatalf("no retry hint while unit benched: %+v", resp)
	}
	if st := unitState(t, c, "u00"); st.State != UnitPending || st.Expiries != 1 {
		t.Fatalf("after first expiry: %+v", st)
	}

	// Past the backoff: re-leased exactly once — the second asker gets
	// nothing.
	clk.Advance(1100 * time.Millisecond)
	lu2 := leaseOne(t, c, "silent-2")
	if lu2.Epoch != 2 {
		t.Fatalf("re-lease epoch = %d, want 2", lu2.Epoch)
	}
	if resp := c.Lease(LeaseRequest{Worker: "eager", Max: 1}); len(resp.Units) != 0 {
		t.Fatalf("double re-lease: %+v", resp.Units)
	}

	// Second silent death. The reaper is lazy — it runs at the next API
	// call, and the backoff window starts at that reap, so drive it
	// explicitly before advancing past the backoff.
	clk.Advance(61 * time.Second)
	if resp := c.Lease(LeaseRequest{Worker: "eager", Max: 1}); len(resp.Units) != 0 {
		t.Fatalf("lease inside second backoff granted %+v", resp.Units)
	}
	clk.Advance(2*time.Second + 100*time.Millisecond)
	lu3 := leaseOne(t, c, "silent-3")
	if lu3.Epoch != 3 {
		t.Fatalf("third lease epoch = %d, want 3", lu3.Epoch)
	}

	// Third expiry exhausts the budget: quarantined, with an artifact.
	clk.Advance(61 * time.Second)
	if resp := c.Lease(LeaseRequest{Worker: "eager", Max: 1}); len(resp.Units) != 0 {
		t.Fatalf("lease of quarantined unit: %+v", resp.Units)
	}
	st := unitState(t, c, "u00")
	if st.State != UnitQuarantined || st.Expiries != 3 {
		t.Fatalf("after budget exhaustion: %+v", st)
	}
	if _, err := os.Stat(QuarantinePath(dir, "u00")); err != nil {
		t.Fatalf("quarantine artifact: %v", err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("sweep not done after sole unit quarantined")
	}
}

// TestHeartbeatExtendsLease: heartbeats push the expiry forward and
// promote the unit to heartbeating.
func TestHeartbeatExtendsLease(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	c := newTestCoordinator(t, clk, nil, testUnits(1))

	lu := leaseOne(t, c, "w")
	for i := 0; i < 5; i++ {
		clk.Advance(50 * time.Second)
		hb := c.Heartbeat(HeartbeatRequest{Worker: "w", Unit: lu.Unit.ID, Epoch: lu.Epoch, Note: "step"})
		if !hb.OK || hb.Abandon {
			t.Fatalf("heartbeat %d rejected: %+v", i, hb)
		}
	}
	st := unitState(t, c, "u00")
	if st.State != UnitHeartbeating || st.Heartbeats != 5 || st.Expiries != 0 {
		t.Fatalf("after heartbeats: %+v", st)
	}
	// 250s elapsed against a 60s TTL: only heartbeats kept it alive.
	if resp := c.Lease(LeaseRequest{Worker: "thief", Max: 1}); len(resp.Units) != 0 {
		t.Fatalf("heartbeating lease stolen: %+v", resp.Units)
	}
}

// TestStaleEpochFenced: a zombie worker resurfacing after its lease was
// reassigned is told to abandon, and its completion is discarded — the
// re-leased holder's completion is the one merged.
func TestStaleEpochFenced(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	c := newTestCoordinator(t, clk, nil, testUnits(1))

	luA := leaseOne(t, c, "a")
	clk.Advance(62 * time.Second) // cross the TTL
	// First call after the TTL reaps the lease and starts the backoff.
	if resp := c.Lease(LeaseRequest{Worker: "b", Max: 1}); len(resp.Units) != 0 {
		t.Fatalf("lease granted inside backoff: %+v", resp.Units)
	}
	clk.Advance(2 * time.Second) // clear backoff
	luB := leaseOne(t, c, "b")

	if hb := c.Heartbeat(HeartbeatRequest{Worker: "a", Unit: luA.Unit.ID, Epoch: luA.Epoch}); !hb.Abandon {
		t.Fatalf("zombie heartbeat not told to abandon: %+v", hb)
	}
	if resp := c.Complete(CompleteRequest{Worker: "a", Unit: luA.Unit.ID, Epoch: luA.Epoch, OK: true, Result: "zombie"}); resp.Accepted {
		t.Fatal("zombie completion merged")
	}
	if resp := c.Complete(CompleteRequest{Worker: "b", Unit: luB.Unit.ID, Epoch: luB.Epoch, OK: true, Result: "real"}); !resp.Accepted {
		t.Fatal("live completion rejected")
	}
	st := unitState(t, c, "u00")
	if st.State != UnitDone || st.Completions != 1 {
		t.Fatalf("merge count wrong: %+v", st)
	}
	if res, ok := c.Result("u00"); !ok || res != "real" {
		t.Fatalf("result = %q, %v", res, ok)
	}
}

// TestSlowCompletionAfterExpiry: if the lease expired but the unit has
// not been re-leased, the original holder's completion still merges —
// the work is real and unduplicated.
func TestSlowCompletionAfterExpiry(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	c := newTestCoordinator(t, clk, nil, testUnits(1))

	lu := leaseOne(t, c, "slow")
	clk.Advance(90 * time.Second) // well past the TTL; no one re-leased
	if resp := c.Complete(CompleteRequest{Worker: "slow", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "late but real"}); !resp.Accepted {
		t.Fatal("slow completion rejected despite no re-lease")
	}
	st := unitState(t, c, "u00")
	if st.State != UnitDone || st.Completions != 1 {
		t.Fatalf("after slow completion: %+v", st)
	}
}

// TestDuplicateCompleteIdempotent: re-delivery of a merged completion
// (the response was dropped, the worker retried) is acknowledged
// without double-merging.
func TestDuplicateCompleteIdempotent(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	c := newTestCoordinator(t, clk, nil, testUnits(1))

	lu := leaseOne(t, c, "w")
	req := CompleteRequest{Worker: "w", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "r"}
	if resp := c.Complete(req); !resp.Accepted {
		t.Fatal("first completion rejected")
	}
	for i := 0; i < 3; i++ {
		if resp := c.Complete(req); !resp.Accepted {
			t.Fatalf("idempotent re-delivery %d rejected", i)
		}
	}
	if st := unitState(t, c, "u00"); st.Completions != 1 {
		t.Fatalf("completions = %d, want 1", st.Completions)
	}
	// A *different* worker claiming the same outcome is still fenced.
	if resp := c.Complete(CompleteRequest{Worker: "imp", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true}); resp.Accepted {
		t.Fatal("impostor completion acknowledged")
	}
}

// TestQuarantineAfterDistinctWorkerFailures: the same worker failing
// repeatedly counts once; the Nth distinct worker's failure quarantines
// the unit with its failure history preserved.
func TestQuarantineAfterDistinctWorkerFailures(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dir := t.TempDir()
	c := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) {
		cfg.StateDir = dir
		cfg.ExpiryBudget = 100 // failures, not expiries, drive this test
	}, testUnits(1))

	fail := func(worker string) {
		t.Helper()
		// Clear any backoff from a previous failure.
		clk.Advance(time.Hour)
		lu := leaseOne(t, c, worker)
		if resp := c.Complete(CompleteRequest{Worker: worker, Unit: lu.Unit.ID, Epoch: lu.Epoch, Error: "boom"}); !resp.Accepted {
			t.Fatalf("%s: failure report rejected", worker)
		}
	}
	fail("a")
	fail("a") // same worker again: distinct count stays 1
	fail("b")
	if st := unitState(t, c, "u00"); st.State != UnitPending {
		t.Fatalf("quarantined after 2 distinct workers: %+v", st)
	}
	fail("c")
	st := unitState(t, c, "u00")
	if st.State != UnitQuarantined || len(st.Failures) != 4 {
		t.Fatalf("after 3rd distinct failure: %+v", st)
	}
	// Both the per-failure crash artifacts and the quarantine record
	// survive per shard.
	if _, err := os.Stat(QuarantinePath(dir, "u00")); err != nil {
		t.Fatalf("quarantine artifact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "u00.1.crash.json")); err != nil {
		t.Fatalf("crash artifact: %v", err)
	}
}

// TestReleaseReturnsUnitUncharged: a voluntary release puts the unit
// straight back in the pool without charging the expiry budget.
func TestReleaseReturnsUnitUncharged(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	c := newTestCoordinator(t, clk, nil, testUnits(1))

	lu := leaseOne(t, c, "a")
	rel := c.Release(ReleaseRequest{Worker: "a", Units: []UnitEpoch{{Unit: lu.Unit.ID, Epoch: lu.Epoch}}, Reason: "shutdown"})
	if rel.Released != 1 {
		t.Fatalf("released = %d, want 1", rel.Released)
	}
	// Immediately leasable, budget untouched, epoch fenced forward.
	lu2 := leaseOne(t, c, "b")
	if lu2.Epoch != lu.Epoch+1 {
		t.Fatalf("epoch after release = %d, want %d", lu2.Epoch, lu.Epoch+1)
	}
	if st := unitState(t, c, "u00"); st.Expiries != 0 {
		t.Fatalf("release charged the expiry budget: %+v", st)
	}
	// The old holder's completion is now fenced.
	if resp := c.Complete(CompleteRequest{Worker: "a", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true}); resp.Accepted {
		t.Fatal("released lease's completion merged")
	}
}

// TestDrainStopsLeasing: draining refuses new grants while letting the
// in-flight completion land, and WriteManifest records the terminal mix.
func TestDrainStopsLeasing(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dir := t.TempDir()
	c := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) { cfg.StateDir = dir }, testUnits(2))

	lu := leaseOne(t, c, "w")
	c.Drain()
	if resp := c.Lease(LeaseRequest{Worker: "w", Max: 1}); !resp.Draining || len(resp.Units) != 0 {
		t.Fatalf("lease during drain: %+v", resp)
	}
	if resp := c.Complete(CompleteRequest{Worker: "w", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "r"}); !resp.Accepted {
		t.Fatal("in-flight completion rejected during drain")
	}
	if !c.Quiesced() {
		t.Fatal("not quiesced after the only lease completed")
	}
	c.WriteManifest()
	data, err := os.ReadFile(filepath.Join(dir, MergedManifestName))
	if err != nil {
		t.Fatalf("merged manifest: %v", err)
	}
	for _, want := range []string{`"u00"`, `"done"`, `"u01"`, `"skipped"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("manifest missing %s:\n%s", want, data)
		}
	}
}

// TestResumeAfterCoordinatorCrash: a new coordinator over the same
// state dir keeps done outcomes (matching grid), reverts in-flight
// leases to pending, and gives a quarantined unit one more run with its
// failure history intact.
func TestResumeAfterCoordinatorCrash(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dir := t.TempDir()
	units := testUnits(4)
	c1 := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) { cfg.StateDir = dir }, units)

	// u00 done, u01 quarantined (via failures), u02 leased (in flight
	// at crash time), u03 untouched.
	lu := leaseOne(t, c1, "a") // u00
	c1.Complete(CompleteRequest{Worker: "a", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "r"})
	for _, w := range []string{"a", "b", "c"} {
		clk.Advance(time.Hour)
		lu := leaseOne(t, c1, w) // u01
		c1.Complete(CompleteRequest{Worker: w, Unit: lu.Unit.ID, Epoch: lu.Epoch, Error: "poison"})
	}
	clk.Advance(time.Hour)
	leaseOne(t, c1, "dies-with-coordinator") // u02

	// "Crash": drop c1, rebuild from disk.
	c2 := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) {
		cfg.StateDir = dir
		cfg.Resume = true
	}, units)

	want := map[UnitID]UnitState{
		"u00": UnitDone,
		"u01": UnitPending,
		"u02": UnitPending,
		"u03": UnitPending,
	}
	for id, state := range want {
		if st := unitState(t, c2, id); st.State != state {
			t.Fatalf("%s resumed as %s, want %s", id, st.State, state)
		}
	}
	// The failure history survived the crash.
	if st := unitState(t, c2, "u01"); len(st.Failures) != 3 || st.Quarantine != "" {
		t.Fatalf("u01 resumed with %d failures, quarantine %q; want 3 and none", len(st.Failures), st.Quarantine)
	}
	// The resumed pending units are immediately leasable and the sweep
	// finishes without touching u00 again; u01's next failure
	// quarantines it at once.
	for i := 0; i < 3; i++ {
		lu := leaseOne(t, c2, "fresh")
		switch lu.Unit.ID {
		case "u00":
			t.Fatal("done unit u00 re-leased after resume")
		case "u01":
			c2.Complete(CompleteRequest{Worker: "fresh", Unit: lu.Unit.ID, Epoch: lu.Epoch, Error: "poison"})
		default:
			c2.Complete(CompleteRequest{Worker: "fresh", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "r"})
		}
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("resumed sweep not done")
	}
	if st := unitState(t, c2, "u01"); st.State != UnitQuarantined || len(st.Failures) != 4 {
		t.Fatalf("u01 after one more failure: %+v", st)
	}
}

// TestResumedFailureIsNotARedelivery: a resumed coordinator grants
// epochs above the recorded failures', so the same worker failing the
// unit again is a new failure, not a redelivery of the old one.
func TestResumedFailureIsNotARedelivery(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dir := t.TempDir()
	units := testUnits(1)
	withState := func(resume bool) func(*CoordinatorConfig) {
		return func(cfg *CoordinatorConfig) {
			cfg.StateDir, cfg.Resume, cfg.QuarantineAfter = dir, resume, 2
		}
	}
	c1 := newTestCoordinator(t, clk, withState(false), units)
	lu := leaseOne(t, c1, "a")
	c1.Complete(CompleteRequest{Worker: "a", Unit: lu.Unit.ID, Epoch: lu.Epoch, Error: "boom"})

	c2 := newTestCoordinator(t, clk, withState(true), units)
	clk.Advance(time.Hour)
	lu2 := leaseOne(t, c2, "a")
	if lu2.Epoch <= lu.Epoch {
		t.Fatalf("resumed lease epoch %d, want above the recorded failure's %d", lu2.Epoch, lu.Epoch)
	}
	c2.Complete(CompleteRequest{Worker: "a", Unit: lu2.Unit.ID, Epoch: lu2.Epoch, Error: "boom"})
	if st := unitState(t, c2, "u00"); st.State != UnitPending || len(st.Failures) != 2 {
		t.Fatalf("after a second failure by the same worker: %+v", st)
	}
}

// TestResumeRejectsMismatchedGrid: state from a different unit grid
// (other seed) must not mask this sweep's work.
func TestResumeRejectsMismatchedGrid(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dir := t.TempDir()
	units := testUnits(1)
	c1 := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) { cfg.StateDir = dir }, units)
	lu := leaseOne(t, c1, "a")
	c1.Complete(CompleteRequest{Worker: "a", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "r"})

	other := testUnits(1)
	other[0].Seed = 0xDEAD // different sweep
	c2 := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) {
		cfg.StateDir = dir
		cfg.Resume = true
	}, other)
	if st := unitState(t, c2, "u00"); st.State != UnitPending {
		t.Fatalf("mismatched-grid outcome restored: %+v", st)
	}
}
