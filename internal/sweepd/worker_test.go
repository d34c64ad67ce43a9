package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// okRunner returns a UnitRunner that records executions per unit and
// succeeds, emitting a couple of progress notes like a real experiment.
func okRunner(mu *sync.Mutex, exec map[UnitID]int) func(string) UnitRunner {
	return func(workerID string) UnitRunner {
		return func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			mu.Lock()
			exec[u.ID]++
			mu.Unlock()
			progress("warmup")
			progress("measuring")
			return UnitResult{OK: true, Result: "ok " + string(u.ID), Attempts: 1}
		}
	}
}

// loopback is an in-process client for c: HTTPClient over c's own
// handler, the transport RunFleet gives its workers.
func loopback(c *Coordinator) Client {
	return loopbackClient(handlerTransport{h: NewServer(c, ServerConfig{})})
}

// TestWorkerRunsSweepLoopback: a clean fleet over the loopback transport
// runs every unit exactly once and the sweep completes.
func TestWorkerRunsSweepLoopback(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(8))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	var mu sync.Mutex
	exec := map[UnitID]int{}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep := RunFleet(ctx, c, FleetConfig{
		Workers: 2, Jobs: 2, NewRunner: okRunner(&mu, exec),
	})
	if rep.Spawned != 2 || rep.Killed != 0 {
		t.Fatalf("fleet report: %+v", rep)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("sweep not done after fleet returned")
	}
	st := c.Snapshot()
	if st.Done != 8 || st.Quarantined != 0 {
		t.Fatalf("snapshot: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, u := range st.Units {
		if exec[u.Unit.ID] != 1 {
			t.Fatalf("%s executed %d times, want 1", u.Unit.ID, exec[u.Unit.ID])
		}
		if u.Completions != 1 {
			t.Fatalf("%s merged %d times, want 1", u.Unit.ID, u.Completions)
		}
	}
}

// TestFleetReturnsWhenSweepDone: once the last unit merges, RunFleet
// returns without waiting for an idle worker to wake from its poll
// backoff. The manual clock never advances, so a fleet that waited out
// the sleep would never return.
func TestFleetReturnsWhenSweepDone(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	c, err := NewCoordinator(CoordinatorConfig{Clock: clk}, testUnits(1))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	gate := NewGate(GateConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunFleet(ctx, c, FleetConfig{
			Workers: 2, Jobs: 1, Clock: clk, Gate: gate, PollMax: time.Hour,
			NewRunner: func(string) UnitRunner {
				return func(ctx context.Context, u Unit, _ func(string)) UnitResult {
					// Finish only after the other worker got its empty
					// lease and went to sleep on the clock.
					for gate.Stats().Endpoints[EndpointLease].Admitted < 2 && ctx.Err() == nil {
						time.Sleep(time.Millisecond)
					}
					return UnitResult{OK: true, Result: "ok", Attempts: 1}
				}
			},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunFleet still waiting on an idle worker after the sweep finished")
	}
	if st := c.Snapshot(); st.Done != 1 {
		t.Fatalf("snapshot: %+v", st)
	}
}

// TestWorkerDrainFinishesInFlight: Drain stops leasing but the in-flight
// unit finishes and reports — the first-signal shutdown grade.
func TestWorkerDrainFinishesInFlight(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(3))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	w := NewWorker(WorkerConfig{
		ID: "w", Client: loopback(c),
		Run: func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			once.Do(func() { close(started) })
			<-release
			return UnitResult{OK: true, Result: "r"}
		},
	})
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(context.Background()) }()

	<-started
	w.Drain()
	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("drained worker returned %v", err)
	}
	st := c.Snapshot()
	if st.Done != 1 || st.Pending != 2 {
		t.Fatalf("after drain: done=%d pending=%d, want 1/2", st.Done, st.Pending)
	}
}

// TestWorkerAbortReleasesLease: cancelling the Run context (the
// second-signal grade) aborts the in-flight unit and hands the lease
// back uncharged, so the coordinator can reassign immediately.
func TestWorkerAbortReleasesLease(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(1))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	started := make(chan struct{})
	w := NewWorker(WorkerConfig{
		ID: "w", Client: loopback(c),
		Run: func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			close(started)
			<-ctx.Done()
			return UnitResult{Error: "aborted"}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(ctx) }()

	<-started
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("aborted worker returned %v, want context.Canceled", err)
	}
	st := unitState(t, c, "u00")
	if st.State != UnitPending || st.Expiries != 0 || len(st.Failures) != 0 {
		t.Fatalf("after abort: %+v", st)
	}
	// The released unit is immediately re-leasable under a fresh epoch.
	lu := leaseOne(t, c, "next")
	if lu.Epoch != 2 {
		t.Fatalf("epoch after release = %d, want 2", lu.Epoch)
	}
}

// releaseFails is a coordinator client whose Release never gets through.
type releaseFails struct{ Client }

func (releaseFails) Release(context.Context, ReleaseRequest) (ReleaseResponse, error) {
	return ReleaseResponse{}, errors.New("connection reset")
}

// TestWorkerLogsFailedRelease: an abort whose Release fails is logged
// as a failure, not as a release, and the lease is left to expire.
func TestWorkerLogsFailedRelease(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(1))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	var log strings.Builder
	started := make(chan struct{})
	w := NewWorker(WorkerConfig{
		ID: "w", Client: releaseFails{loopback(c)}, Log: &log,
		Run: func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			close(started)
			<-ctx.Done()
			return UnitResult{Error: "aborted"}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(ctx) }()

	<-started
	cancel()
	<-errCh
	if got := log.String(); !strings.Contains(got, "release of u00 failed") || strings.Contains(got, "released u00") {
		t.Fatalf("worker log does not report the failed release:\n%s", got)
	}
	if st := unitState(t, c, "u00"); st.State != UnitLeased {
		t.Fatalf("after a failed release the unit is %+v, want still leased", st)
	}
}

// abandonClient scripts a coordinator that reassigns the unit behind the
// worker's back: the first heartbeat answers Abandon, and any Complete
// is a protocol violation.
type abandonClient struct {
	leased    atomic.Bool
	completed atomic.Bool
	released  atomic.Bool
}

func (a *abandonClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	if a.leased.Swap(true) {
		return LeaseResponse{Done: true}, nil
	}
	return LeaseResponse{
		Units: []LeasedUnit{{Unit: Unit{ID: "u00", Experiment: "exp"}, Epoch: 1, TTLMillis: 30}},
	}, nil
}

func (a *abandonClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return HeartbeatResponse{OK: false, Abandon: true}, nil
}

func (a *abandonClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	a.completed.Store(true)
	return CompleteResponse{}, nil
}

func (a *abandonClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	a.completed.Store(true)
	return CompleteBatchResponse{Accepted: make([]bool, len(req.Units))}, nil
}

func (a *abandonClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	a.released.Store(true)
	return ReleaseResponse{}, nil
}

// TestWorkerAbandonsReassignedUnit: when a heartbeat learns the lease
// was reassigned, the worker cancels the unit and walks away without
// completing or releasing — the unit belongs to someone else now.
func TestWorkerAbandonsReassignedUnit(t *testing.T) {
	client := &abandonClient{}
	w := NewWorker(WorkerConfig{
		ID: "w", Client: client,
		Run: func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			<-ctx.Done() // cancelled by the abandon
			return UnitResult{OK: true, Result: "too late"}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker returned %v", err)
	}
	if client.completed.Load() {
		t.Fatal("abandoned unit was completed anyway")
	}
	if client.released.Load() {
		t.Fatal("abandoned unit was released (it is not ours to release)")
	}
}

// TestHTTPTransportSweep: the same worker loop over real HTTP — the
// coordinator server and HTTPClient round-trip every protocol message,
// and GET /v1/status serves the snapshot.
func TestHTTPTransportSweep(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(4))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(NewServer(c, ServerConfig{}))
	defer srv.Close()

	var mu sync.Mutex
	exec := map[UnitID]int{}
	w := NewWorker(WorkerConfig{
		ID:     "http-w",
		Client: &HTTPClient{Base: srv.URL},
		Run:    okRunner(&mu, exec)("http-w"),
		Jobs:   2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker over HTTP: %v", err)
	}

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatalf("GET /v1/status: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.Done != 4 || st.Pending != 0 {
		t.Fatalf("status over HTTP: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range exec {
		if n != 1 {
			t.Fatalf("%s executed %d times over HTTP, want 1", id, n)
		}
	}
}
