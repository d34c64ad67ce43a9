package sweepd

import (
	"fmt"
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

// TestDrainStopsLeasing: draining refuses new grants while letting the
// in-flight completion land, and the unleased unit stays pending.
func TestDrainStopsLeasing(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	c := newTestCoordinator(t, clk, nil, testUnits(2))

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
	if got := unitState(t, c, "u00").State; got != UnitDone {
		t.Errorf("u00 %s, want done", got)
	}
	if got := unitState(t, c, "u01").State; got != UnitPending {
		t.Errorf("u01 %s, want pending", got)
	}
}
