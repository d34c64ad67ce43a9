package sweepd

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetrierJitterDivergesAcrossWorkers: two workers with identical
// configuration (same failure history, same retry base) draw different
// backoff schedules, because each seeds its jitter stream from its own
// ID. Identical schedules are the thundering herd: every worker would
// return at the same instant forever.
func TestRetrierJitterDivergesAcrossWorkers(t *testing.T) {
	schedule := func(id string) []time.Duration {
		w := NewWorker(WorkerConfig{
			ID: "worker-" + id, Client: &HTTPClient{},
			Run: func(ctx context.Context, u Unit, p func(string)) UnitResult { return UnitResult{} },
		})
		r := w.newRetrier("lease")
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = r.next()
		}
		return out
	}
	a, b := schedule("a"), schedule("b")
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("two workers drew identical backoff schedules %v — no jitter", a)
	}
	// And a worker is deterministic against itself: reruns reproduce.
	if a2 := schedule("a"); len(a2) != len(a) || a2[0] != a[0] || a2[7] != a[7] {
		t.Fatalf("same worker drew different schedules across runs: %v vs %v", a, a2)
	}
}

// TestRetrierBackoffShape: waits are positive, capped at max, and grow
// in expectation; reset rewinds; stretch never shrinks a server hint.
func TestRetrierBackoffShape(t *testing.T) {
	w := NewWorker(WorkerConfig{
		ID: "shape", Client: &HTTPClient{},
		Run:       func(ctx context.Context, u Unit, p func(string)) UnitResult { return UnitResult{} },
		RetryBase: 10 * time.Millisecond, PollMax: 80 * time.Millisecond,
	})
	r := w.newRetrier("lease")
	for i := 0; i < 50; i++ {
		d := r.next()
		if d <= 0 || d > 80*time.Millisecond {
			t.Fatalf("wait %d = %v out of (0, PollMax]", i, d)
		}
	}
	r.reset()
	if d := r.next(); d > 10*time.Millisecond {
		t.Fatalf("first wait after reset = %v, want <= base", d)
	}
	for i := 0; i < 100; i++ {
		hint := 40 * time.Millisecond
		got := r.stretch(hint)
		if got < hint || got > hint+hint/2 {
			t.Fatalf("stretch(%v) = %v, want within [hint, 1.5×hint]", hint, got)
		}
	}
}

// flakyClient fails every call with a transport error until healed.
type flakyClient struct {
	healed atomic.Bool
	calls  atomic.Int64
}

func (f *flakyClient) outcome() error {
	f.calls.Add(1)
	if f.healed.Load() {
		return nil
	}
	return errors.New("connection refused")
}

func (f *flakyClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	return LeaseResponse{Done: true}, f.outcome()
}
func (f *flakyClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return HeartbeatResponse{}, f.outcome()
}
func (f *flakyClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	return CompleteResponse{}, f.outcome()
}
func (f *flakyClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	return CompleteBatchResponse{}, f.outcome()
}
func (f *flakyClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	return ReleaseResponse{}, f.outcome()
}

// TestBreakerTripsFastFailsAndRecovers walks the breaker through its
// whole state machine on a manual clock: consecutive transport failures
// trip it open, calls inside the cooldown fast-fail locally (the inner
// client is never touched), the cooldown admits exactly one probe, a
// failed probe re-trips, and a successful probe closes it again.
func TestBreakerTripsFastFailsAndRecovers(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	inner := &flakyClient{}
	b := &breakerClient{inner: inner, clock: clk, after: 3, cooldown: time.Second}
	ctx := context.Background()

	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if _, err := b.Lease(ctx, LeaseRequest{}); err == nil {
			t.Fatalf("call %d: inner failure not surfaced", i)
		}
	}
	if st := b.snapshot(); st.Trips != 1 {
		t.Fatalf("after %d failures: %+v, want 1 trip", 3, st)
	}

	// Open: calls fast-fail without touching the coordinator.
	before := inner.calls.Load()
	for i := 0; i < 5; i++ {
		if _, err := b.Heartbeat(ctx, HeartbeatRequest{}); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open-breaker call %d returned %v, want ErrBreakerOpen", i, err)
		}
	}
	if got := inner.calls.Load(); got != before {
		t.Fatalf("open breaker let %d calls through", got-before)
	}
	if st := b.snapshot(); st.FastFails != 5 {
		t.Fatalf("fast fails %d, want 5", st.FastFails)
	}

	// Cooldown over: one probe goes through; it fails, so the breaker
	// re-trips immediately (no three-strike grace in half-open).
	clk.Advance(time.Second)
	if _, err := b.Lease(ctx, LeaseRequest{}); err == nil {
		t.Fatal("failed probe reported success")
	}
	if st := b.snapshot(); st.Probes != 1 || st.Trips != 2 {
		t.Fatalf("after failed probe: %+v, want 1 probe and 2 trips", st)
	}
	if _, err := b.Lease(ctx, LeaseRequest{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("call right after failed probe returned %v, want ErrBreakerOpen", err)
	}

	// Heal the coordinator; the next probe closes the breaker for good.
	inner.healed.Store(true)
	clk.Advance(time.Second)
	if _, err := b.Lease(ctx, LeaseRequest{}); err != nil {
		t.Fatalf("healed probe failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Complete(ctx, CompleteRequest{}); err != nil {
			t.Fatalf("closed-breaker call %d: %v", i, err)
		}
	}
	if st := b.snapshot(); st.Probes != 2 || st.Trips != 2 {
		t.Fatalf("after recovery: %+v, want 2 probes and no new trip", st)
	}
}

// TestBreakerIgnoresShedAndCancel: OverloadError (the coordinator is
// alive, just shedding) resets the failure streak, and the caller's own
// cancellation counts as nothing at all.
func TestBreakerIgnoresShedAndCancel(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	b := &breakerClient{inner: &flakyClient{}, clock: clk, after: 2, cooldown: time.Second}

	b.record(errors.New("transport down")) // streak 1 of 2
	b.record(&OverloadError{Endpoint: EndpointLease, RetryAfter: time.Second})
	b.record(errors.New("transport down")) // streak back to 1
	if st := b.snapshot(); st.Trips != 0 {
		t.Fatalf("shed response did not reset the streak: %+v", st)
	}
	b.record(context.Canceled) // neutral: says nothing about the server
	b.record(errors.New("transport down"))
	if st := b.snapshot(); st.Trips != 1 {
		t.Fatalf("streak accounting wrong after cancel: %+v", st)
	}
}

// TestWorkerDisablesBreaker: a negative BreakerAfter removes the
// breaker entirely — the client chain is untouched and stats are zero.
func TestWorkerDisablesBreaker(t *testing.T) {
	w := NewWorker(WorkerConfig{
		ID: "nobreaker", Client: &HTTPClient{},
		Run:          func(ctx context.Context, u Unit, p func(string)) UnitResult { return UnitResult{} },
		BreakerAfter: -1,
	})
	if w.breaker != nil {
		t.Fatal("breaker installed despite BreakerAfter < 0")
	}
	if st := w.BreakerStats(); st != (BreakerStats{}) {
		t.Fatalf("disabled breaker reported stats %+v", st)
	}
}

// countingClient tallies protocol round trips to the coordinator.
type countingClient struct {
	inner                 Client
	leases, completes     atomic.Int64
	batches, batchedUnits atomic.Int64
	heartbeats, releases  atomic.Int64
}

func (c *countingClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	c.leases.Add(1)
	return c.inner.Lease(ctx, req)
}
func (c *countingClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	c.heartbeats.Add(1)
	return c.inner.Heartbeat(ctx, req)
}
func (c *countingClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	c.completes.Add(1)
	return c.inner.Complete(ctx, req)
}
func (c *countingClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	c.batches.Add(1)
	c.batchedUnits.Add(int64(len(req.Units)))
	return c.inner.CompleteBatch(ctx, req)
}
func (c *countingClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	c.releases.Add(1)
	return c.inner.Release(ctx, req)
}

// TestBatchedCompletesFewerRoundTrips: with BatchCompletes a worker
// running units concurrently ships strictly fewer completion round
// trips than units completed — the point of the batch — and zero
// per-unit Completes; the sweep still merges every unit exactly once.
func TestBatchedCompletesFewerRoundTrips(t *testing.T) {
	const nUnits = 12
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(nUnits))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	counter := &countingClient{inner: loopback(c)}
	var mu sync.Mutex
	exec := map[UnitID]int{}
	w := NewWorker(WorkerConfig{
		ID: "batcher", Client: counter,
		Run:            okRunner(&mu, exec)("batcher"),
		Jobs:           6,
		BatchCompletes: true,
		BatchLinger:    50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}

	st := c.Snapshot()
	if st.Done != nUnits {
		t.Fatalf("done=%d, want %d", st.Done, nUnits)
	}
	for _, u := range st.Units {
		if u.Completions != 1 {
			t.Fatalf("%s merged %d times, want 1", u.Unit.ID, u.Completions)
		}
	}
	if got := counter.completes.Load(); got != 0 {
		t.Fatalf("%d per-unit Complete calls despite batching", got)
	}
	if counter.batchedUnits.Load() != nUnits {
		t.Fatalf("batches carried %d units, want %d", counter.batchedUnits.Load(), nUnits)
	}
	if b := counter.batches.Load(); b == 0 || b >= nUnits {
		t.Fatalf("%d batch round trips for %d units — batching saved nothing", b, nUnits)
	}
	t.Logf("batched: %d units in %d round trips (vs %d unbatched)",
		nUnits, counter.batches.Load(), nUnits)
}

// TestBatchedCompletesSurviveShedding: every CompleteBatch is shed with
// a retry hint a few times before being admitted; the batch is
// redelivered and the sweep still merges exactly once.
func TestBatchedCompletesSurviveShedding(t *testing.T) {
	const nUnits = 6
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(nUnits))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	var drops atomic.Int64
	shedder := &sheddingClient{inner: loopback(c), shedFirst: 2, drops: &drops}
	var mu sync.Mutex
	exec := map[UnitID]int{}
	w := NewWorker(WorkerConfig{
		ID: "shedded", Client: shedder,
		Run:            okRunner(&mu, exec)("shedded"),
		Jobs:           3,
		BatchCompletes: true,
		RetryBase:      time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	st := c.Snapshot()
	if st.Done != nUnits {
		t.Fatalf("done=%d, want %d (batches lost to shedding?)", st.Done, nUnits)
	}
	for _, u := range st.Units {
		if u.Completions != 1 {
			t.Fatalf("%s merged %d times, want 1", u.Unit.ID, u.Completions)
		}
	}
	if drops.Load() == 0 {
		t.Fatal("shedder never shed a batch; test proved nothing")
	}
}

// sheddingClient sheds the first shedFirst CompleteBatch calls with an
// OverloadError, then admits everything.
type sheddingClient struct {
	inner     Client
	shedFirst int64
	seen      atomic.Int64
	drops     *atomic.Int64
}

func (s *sheddingClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	return s.inner.Lease(ctx, req)
}
func (s *sheddingClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return s.inner.Heartbeat(ctx, req)
}
func (s *sheddingClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	return s.inner.Complete(ctx, req)
}
func (s *sheddingClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	if s.seen.Add(1) <= s.shedFirst {
		s.drops.Add(1)
		return CompleteBatchResponse{}, &OverloadError{Endpoint: EndpointComplete, RetryAfter: 2 * time.Millisecond}
	}
	return s.inner.CompleteBatch(ctx, req)
}
func (s *sheddingClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	return s.inner.Release(ctx, req)
}
