package sweepd

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestOverloadChaosThunderingHerd is the overload-robustness proof: a
// herd of workers far wider than the admission gate's capacity is
// released at one instant against a coordinator behind tight inflight
// caps, while one network plan stalls every call with latency ramps and
// slow-loris trickles and drops and duplicates messages underneath.
// Under all of that:
//
//   - the coordinator never sees more than the configured inflight cap
//     on any endpoint (the gate's hard invariant),
//   - load past the cap is shed — and every shed caller retries its way
//     to success, because the sweep still finishes with every unit
//     merged exactly once (or explicitly quarantined with its artifact
//     on disk),
//   - the brownout/shed machinery actually fired (shed > 0, queueing
//     observed), so the run proved something.
//
// Run with -race: the gate, sink, and breaker are all concurrent.
func TestOverloadChaosThunderingHerd(t *testing.T) {
	const (
		nUnits      = 48
		nWorkers    = 96
		inflightCap = 4
	)
	units := testUnits(nUnits)
	dir := t.TempDir()
	c, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL: 500 * time.Millisecond,
		// Sheds can exhaust a worker's complete retries, leaving the
		// outcome to lease expiry — that is chaos, not poison, so the
		// budget must absorb it.
		ExpiryBudget:    500,
		QuarantineAfter: 5,
		RetryBase:       5 * time.Millisecond,
		RetryJitter:     5 * time.Millisecond,
		Seed:            0x4E8D,
		StateDir:        dir,
	}, units)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	gate := NewGate(GateConfig{
		Default: GateLimits{Inflight: inflightCap, Queue: 8, QueueWait: 10 * time.Millisecond},
	})
	c.AttachGate(gate)

	var mu sync.Mutex
	exec := map[UnitID]int{}
	newRunner := func(workerID string) UnitRunner {
		return func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			mu.Lock()
			exec[u.ID]++
			mu.Unlock()
			progress("measuring")
			time.Sleep(time.Millisecond)
			return UnitResult{OK: true, Result: "ok " + string(u.ID), Attempts: 1}
		}
	}

	// Trickle-heavy mix: with ~a third of admitted calls holding their
	// gate slot for 120ms, four slots congest constantly — queueing and
	// shedding are a certainty, not a scheduling accident.
	cfg := faults.DefaultNetConfig(0.25, 0)
	cfg.RampPeriod, cfg.RampMax = 500*time.Millisecond, 10*time.Millisecond
	cfg.TrickleProb, cfg.TrickleFor = 0.35, 120*time.Millisecond
	plan := faults.NewNetPlan(cfg, 0x0AD)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep := RunFleet(ctx, c, FleetConfig{
		Workers: nWorkers, Jobs: 1,
		NewRunner: newRunner,
		Plan:      plan,
		Gate:      gate,
		HerdStart: true,
		// Batched completes ride through the same storm.
		BatchCompletes: true,
		RetryBase:      2 * time.Millisecond,
		MaxRespawns:    300,
		PollMax:        200 * time.Millisecond,
	})
	if ctx.Err() != nil {
		t.Fatalf("overloaded sweep timed out; fleet=%+v gate=%+v snapshot=%+v",
			rep, gate.Stats(), c.Snapshot())
	}
	select {
	case <-c.Done():
	default:
		t.Fatalf("fleet returned but sweep not done: fleet=%+v gate=%+v snapshot=%+v",
			rep, gate.Stats(), c.Snapshot())
	}

	// Exactly-once or explicitly quarantined, same contract as the
	// network chaos test — overload must not weaken it.
	st := c.Snapshot()
	mu.Lock()
	for _, u := range st.Units {
		id := u.Unit.ID
		switch u.State {
		case UnitDone:
			if u.Completions != 1 {
				t.Errorf("%s merged %d times, want exactly 1", id, u.Completions)
			}
			if exec[id] < 1 {
				t.Errorf("%s done but never executed", id)
			}
		case UnitQuarantined:
			if _, err := os.Stat(QuarantinePath(dir, id)); err != nil {
				t.Errorf("%s quarantined without artifact: %v", id, err)
			}
		default:
			t.Errorf("%s ended non-terminal: %+v", id, u)
		}
	}
	mu.Unlock()

	// The admission invariants. InflightMax is the gate's high-water
	// mark: if it ever exceeded the cap, admission failed its one job.
	gs := gate.Stats()
	for ep, load := range gs.Endpoints {
		if load.InflightMax > inflightCap {
			t.Errorf("endpoint %s inflight high-water %d exceeded cap %d", ep, load.InflightMax, inflightCap)
		}
		if load.Inflight != 0 || load.Queued != 0 {
			t.Errorf("endpoint %s gauges not drained: %+v", ep, load)
		}
	}

	// The storm must actually have stormed: a herd of 96 against 4
	// slots must shed (96 simultaneous leases cannot all fit a
	// 4+16 gate), and the queue must have been used.
	lease := gs.Endpoints[EndpointLease]
	if lease.Shed == 0 {
		t.Errorf("herd of %d against %d slots shed nothing: %+v", nWorkers, inflightCap, lease)
	}
	if lease.QueuedMax == 0 {
		t.Errorf("queue never used under herd load: %+v", lease)
	}
	if lease.Admitted == 0 {
		t.Errorf("nothing admitted on lease: %+v", lease)
	}
	if ps := plan.Stats(); ps.Calls == 0 || ps.TotalStall == 0 {
		t.Errorf("plan injected no stall: %+v", ps)
	}
	t.Logf("overload chaos: fleet=%+v gate=%+v net=%+v", rep, gs, plan.Stats())
}

// TestFleetHerdStartReleasesTogether: the herd barrier releases every
// initial worker at one instant. With every admitted call holding its
// gate slot for a deterministic 25ms trickle, a synchronized burst of
// 32 lease calls against a 2-slot, 4-deep gate must overflow into
// queueing and shedding — and the shed workers must still retry their
// way to a finished sweep.
func TestFleetHerdStartReleasesTogether(t *testing.T) {
	const nWorkers = 32
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(nWorkers))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	gate := NewGate(GateConfig{
		Default: GateLimits{Inflight: 2, Queue: 4, QueueWait: 5 * time.Millisecond},
	})
	c.AttachGate(gate)
	// Every call trickles: the revolving door spins slow enough that the
	// herd's burst cannot drain through it one at a time.
	plan := faults.NewNetPlan(faults.NetConfig{TrickleProb: 1, TrickleFor: 25 * time.Millisecond}, 0x5EED)
	var mu sync.Mutex
	exec := map[UnitID]int{}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	RunFleet(ctx, c, FleetConfig{
		Workers: nWorkers, Jobs: 1,
		NewRunner: okRunner(&mu, exec),
		Plan:      plan,
		Gate:      gate,
		HerdStart: true,
		RetryBase: 2 * time.Millisecond,
		PollMax:   50 * time.Millisecond,
	})
	select {
	case <-c.Done():
	default:
		t.Fatalf("herd sweep not done: %+v", c.Snapshot())
	}
	lease := gate.Stats().Endpoints[EndpointLease]
	if lease.Shed == 0 {
		t.Fatalf("synchronized herd left no shed trace: %+v", lease)
	}
	if lease.InflightMax > 2 {
		t.Fatalf("inflight high-water %d exceeded cap 2", lease.InflightMax)
	}
	st := c.Snapshot()
	if st.Done != nWorkers {
		t.Fatalf("done=%d, want %d", st.Done, nWorkers)
	}
}
