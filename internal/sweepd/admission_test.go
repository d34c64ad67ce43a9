package sweepd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// leaseGate builds a gate with the given limits, for tests that drive
// its lease endpoint.
func leaseGate(l GateLimits) *Gate {
	return NewGate(GateConfig{Default: l})
}

// waitForQueued polls until the endpoint's queued gauge reaches n —
// the only way a test can know a concurrent Acquire has actually
// entered the wait queue.
func waitForQueued(t *testing.T, g *Gate, endpoint string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.Stats().Endpoints[endpoint].Queued >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queued gauge never reached %d: %+v", n, g.Stats().Endpoints[endpoint])
}

// TestGateAdmitsUpToInflight: the first Inflight acquisitions are
// immediate, and a queued request is admitted the moment a slot frees.
func TestGateAdmitsUpToInflight(t *testing.T) {
	g := leaseGate(GateLimits{Inflight: 2, Queue: 2, QueueWait: 5 * time.Second})
	ctx := context.Background()

	rel1, err := g.Acquire(ctx, EndpointLease)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	rel2, err := g.Acquire(ctx, EndpointLease)
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}

	// Third must queue: prove it is not admitted until a slot frees.
	got := make(chan error, 1)
	var rel3 func()
	go func() {
		var err error
		rel3, err = g.Acquire(ctx, EndpointLease)
		got <- err
	}()
	waitForQueued(t, g, EndpointLease, 1)
	select {
	case err := <-got:
		t.Fatalf("third acquire returned %v while both slots were held", err)
	default:
	}

	rel1()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	rel2()
	rel3()

	st := g.Stats().Endpoints[EndpointLease]
	if st.Admitted != 3 || st.Shed != 0 {
		t.Fatalf("admitted=%d shed=%d, want 3/0", st.Admitted, st.Shed)
	}
	if st.InflightMax != 2 {
		t.Fatalf("inflight high-water %d, want 2 (the cap)", st.InflightMax)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}
}

// TestGateShedsPastQueueBound: with the slot held and the queue full, a
// new arrival is refused immediately with a typed OverloadError.
func TestGateShedsPastQueueBound(t *testing.T) {
	g := leaseGate(GateLimits{Inflight: 1, Queue: 1, QueueWait: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rel, err := g.Acquire(ctx, EndpointLease)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer rel()
	go g.Acquire(ctx, EndpointLease) // fills the queue; released by cancel
	waitForQueued(t, g, EndpointLease, 1)

	_, err = g.Acquire(ctx, EndpointLease)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("acquire past queue bound returned %v, want *OverloadError", err)
	}
	if oe.Endpoint != EndpointLease {
		t.Fatalf("shed endpoint %q, want %q", oe.Endpoint, EndpointLease)
	}
	// Queue saturated: the hint must be at the stretched end, not the
	// first-refusal quarter.
	if oe.RetryAfter < time.Minute {
		t.Fatalf("retry hint %v at full queue, want >= QueueWait", oe.RetryAfter)
	}
	if st := g.Stats().Endpoints[EndpointLease]; st.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", st.Shed)
	}
}

// TestGateQueueWaitSheds: a queued request that never gets a slot is
// shed once QueueWait elapses instead of waiting forever.
func TestGateQueueWaitSheds(t *testing.T) {
	g := leaseGate(GateLimits{Inflight: 1, Queue: 4, QueueWait: 20 * time.Millisecond})
	ctx := context.Background()

	rel, err := g.Acquire(ctx, EndpointLease)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer rel()

	_, err = g.Acquire(ctx, EndpointLease)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("queued acquire returned %v, want *OverloadError after queue wait", err)
	}
	st := g.Stats().Endpoints[EndpointLease]
	if st.Shed != 1 || st.Queued != 0 {
		t.Fatalf("after queue-wait shed: %+v", st)
	}
}

// TestGateContextCancelWhileQueued: a caller that gives up while queued
// gets its own ctx error, not an OverloadError, and the queue drains.
func TestGateContextCancelWhileQueued(t *testing.T) {
	g := leaseGate(GateLimits{Inflight: 1, Queue: 4, QueueWait: time.Minute})
	rel, err := g.Acquire(context.Background(), EndpointLease)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer rel()

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx, EndpointLease)
		got <- err
	}()
	waitForQueued(t, g, EndpointLease, 1)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued acquire returned %v, want context.Canceled", err)
	}
	if st := g.Stats().Endpoints[EndpointLease]; st.Queued != 0 || st.Shed != 0 {
		t.Fatalf("after cancel: %+v (cancel is not a shed)", st)
	}
}

// TestGateReleaseIdempotent: double-releasing one admission must not
// free two slots (or block); the inflight gauge stays exact.
func TestGateReleaseIdempotent(t *testing.T) {
	g := leaseGate(GateLimits{Inflight: 1, Queue: 1, QueueWait: 10 * time.Millisecond})
	rel, err := g.Acquire(context.Background(), EndpointLease)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rel()
	rel() // must be a no-op, not a second slot credit

	if st := g.Stats().Endpoints[EndpointLease]; st.Inflight != 0 {
		t.Fatalf("inflight gauge %d after double release, want 0", st.Inflight)
	}
	// The single slot still behaves as a single slot.
	rel1, err := g.Acquire(context.Background(), EndpointLease)
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	defer rel1()
	if _, err := g.Acquire(context.Background(), EndpointLease); err == nil {
		t.Fatal("second concurrent acquire succeeded; double release leaked a slot")
	}
}

// TestGateUnknownEndpointUnconditional: endpoints the gate was not
// configured for pass through without counters or limits.
func TestGateUnknownEndpointUnconditional(t *testing.T) {
	g := leaseGate(GateLimits{Inflight: 1})
	for i := 0; i < 10; i++ {
		rel, err := g.Acquire(context.Background(), "bogus")
		if err != nil {
			t.Fatalf("acquire %d of unknown endpoint: %v", i, err)
		}
		rel()
	}
	if _, ok := g.Stats().Endpoints["bogus"]; ok {
		t.Fatal("unknown endpoint grew counters")
	}
}

// TestGateRetryAfterScalesWithPressure: the shed hint stretches from a
// quarter of the queue wait toward 1.25× as the queue fills.
func TestGateRetryAfterScalesWithPressure(t *testing.T) {
	g := NewGate(GateConfig{})
	s := &gateSlot{limits: GateLimits{Inflight: 1, Queue: 10, QueueWait: time.Second}}

	empty := g.retryAfter(s)
	if empty != 250*time.Millisecond {
		t.Fatalf("empty-queue hint %v, want QueueWait/4", empty)
	}
	s.queued.Store(5)
	half := g.retryAfter(s)
	s.queued.Store(10)
	full := g.retryAfter(s)
	if !(empty < half && half < full) {
		t.Fatalf("hint not monotone in queue depth: %v, %v, %v", empty, half, full)
	}
	if full != 1250*time.Millisecond {
		t.Fatalf("saturated hint %v, want 1.25×QueueWait", full)
	}
}

// TestGatePressure: pressure is the fullest endpoint queue, clamped to
// [0, 1], and returns to zero when the queue drains.
func TestGatePressure(t *testing.T) {
	g := leaseGate(GateLimits{Inflight: 1, Queue: 2, QueueWait: time.Minute})
	if p := g.Pressure(); p != 0 {
		t.Fatalf("idle pressure %v, want 0", p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rel, err := g.Acquire(ctx, EndpointLease)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer rel()
	go g.Acquire(ctx, EndpointLease)
	waitForQueued(t, g, EndpointLease, 1)
	if p := g.Pressure(); p != 0.5 {
		t.Fatalf("pressure with half-full queue = %v, want 0.5", p)
	}
	go g.Acquire(ctx, EndpointLease)
	waitForQueued(t, g, EndpointLease, 2)
	if p := g.Pressure(); p != 1 {
		t.Fatalf("pressure with full queue = %v, want 1", p)
	}
}

// TestGateInflightNeverExceedsCapUnderHerd: a synchronized stampede of
// acquirers never pushes the inflight high-water past the cap, and
// everyone is eventually served (queue sized to hold them all).
func TestGateInflightNeverExceedsCapUnderHerd(t *testing.T) {
	const herd, inflightCap = 64, 4
	g := leaseGate(GateLimits{Inflight: inflightCap, Queue: herd, QueueWait: 30 * time.Second})

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rel, err := g.Acquire(context.Background(), EndpointLease)
			if err != nil {
				errs <- err
				return
			}
			time.Sleep(100 * time.Microsecond) // hold the slot briefly
			rel()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("herd acquire failed: %v", err)
	}

	st := g.Stats().Endpoints[EndpointLease]
	if st.InflightMax > inflightCap {
		t.Fatalf("inflight high-water %d exceeded cap %d", st.InflightMax, inflightCap)
	}
	if st.Admitted != herd {
		t.Fatalf("admitted %d of %d", st.Admitted, herd)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("gauges not drained after herd: %+v", st)
	}
}

// TestGateRecordBreaker: worker breaker counters fold into the gate's
// aggregate additively.
func TestGateRecordBreaker(t *testing.T) {
	g := NewGate(GateConfig{})
	g.RecordBreaker(BreakerStats{Trips: 1, FastFails: 3, Probes: 2})
	g.RecordBreaker(BreakerStats{Trips: 2, FastFails: 1})
	if b := g.Stats().Breaker; b.Trips != 3 || b.FastFails != 4 || b.Probes != 2 {
		t.Fatalf("aggregated breaker stats %+v", b)
	}
}
