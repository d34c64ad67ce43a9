// Package sweepd is the crash-proof sweep service behind every `ufsim`
// sweep: a coordinator shards a sweep (experiment × seed × config grid)
// into work units and hands them to workers — in-process (RunFleet) or
// remote — over a small HTTP/JSON protocol with lease/heartbeat
// semantics. What a unit runs is the caller's UnitRunner; `ufsim`
// plugs in the supervised experiment runner (internal/runner). The design goal is the one every later
// roadmap item leans on: a sweep whose trials are each merged exactly
// once — never lost, never double-counted — while workers crash, hang,
// partition, and restart under it.
//
// The protocol is four idempotent POSTs:
//
//   - POST /v1/lease: a worker claims up to Max pending units. Each
//     grant carries a lease TTL and a fencing epoch; a unit whose lease
//     expires is reassigned with a capped, jittered retry budget.
//   - POST /v1/heartbeat: extends a live lease and streams partial
//     progress back (the last note is visible in /v1/status and in
//     quarantine artifacts). A heartbeat for a stale epoch tells the
//     worker to abandon the unit: its lease expired and the unit now
//     belongs to someone else.
//   - POST /v1/complete: delivers the unit's outcome. Completion is
//     accepted only from the current lease epoch, so a zombie worker
//     resurfacing after a partition cannot double-merge a reassigned
//     unit; re-delivery of an already-merged outcome under the same
//     epoch is acknowledged idempotently (the worker's response was
//     lost, not the work).
//   - POST /v1/release: voluntarily returns leases (graceful shutdown);
//     a released unit goes back to pending without charging its retry
//     budget.
//
// Failure containment is per unit: a unit that fails on N distinct
// workers (or exhausts its lease-expiry budget) is quarantined — taken
// out of circulation with its failure history and crash artifacts
// preserved — instead of wedging the sweep in a retry loop.
//
// All coordinator time arithmetic goes through an injectable Clock and
// expiry is reaped lazily on API entry, so lease semantics are tested
// against a manual clock with no real sleeps. RunFleet exercises the
// whole protocol hermetically: its workers' HTTPClients reach the
// coordinator's own handler through an in-process http.RoundTripper,
// on top of which internal/faults.NetPlan injects dropped/delayed/
// duplicated requests, partitions, and mid-trial worker kills. See
// DESIGN.md §8 for the work-unit state machine.
package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// UnitID names one work unit within a sweep, e.g. "fig3" or "tab2#3".
type UnitID string

// Unit is one shard of a sweep: a single experiment run under a fixed
// (seed, quick) configuration. Replicated sweeps derive per-replica
// seeds, so the grid experiment × seed is flattened into units.
type Unit struct {
	ID         UnitID `json:"id"`
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
}

// UnitState is a work unit's position in the lifecycle
// pending → leased → heartbeating → done | quarantined (an expired
// lease returns the unit to pending until its budgets run out).
type UnitState string

const (
	// UnitPending means the unit is waiting to be leased (possibly in a
	// post-expiry backoff window).
	UnitPending UnitState = "pending"
	// UnitLeased means a worker holds a live lease but has not
	// heartbeated yet.
	UnitLeased UnitState = "leased"
	// UnitHeartbeating means the leasing worker has sent at least one
	// heartbeat — it is alive and making progress.
	UnitHeartbeating UnitState = "heartbeating"
	// UnitDone means exactly one completion was merged for this unit.
	UnitDone UnitState = "done"
	// UnitQuarantined means the unit was taken out of circulation:
	// failed on too many distinct workers or burned its lease-expiry
	// budget. Its failure history is preserved in a quarantine artifact.
	UnitQuarantined UnitState = "quarantined"
)

// Terminal reports whether the state is final.
func (s UnitState) Terminal() bool { return s == UnitDone || s == UnitQuarantined }

// LeaseRequest asks for up to Max units on behalf of Worker.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// LeasedUnit is one granted lease.
type LeasedUnit struct {
	Unit Unit `json:"unit"`
	// Epoch is the fencing token: heartbeats and completions must echo
	// it, and only the newest epoch's are honored.
	Epoch uint64 `json:"epoch"`
	// TTLMillis is the lease duration; the worker should heartbeat at
	// roughly a third of it.
	TTLMillis int64 `json:"ttl_ms"`
}

// LeaseResponse returns granted leases, or the reason none were granted.
type LeaseResponse struct {
	Units []LeasedUnit `json:"units,omitempty"`
	// Done means every unit is terminal: the sweep is over and the
	// worker can exit.
	Done bool `json:"done,omitempty"`
	// Draining means the coordinator is shutting down and grants
	// nothing; workers should finish in-flight units and exit.
	Draining bool `json:"draining,omitempty"`
	// Degraded means the coordinator can no longer persist sweep state
	// (checkpoint failures exhausted their retry budget) and refuses
	// new leases rather than hand out work it could not resume.
	// Workers should exit and surface the condition.
	Degraded bool `json:"degraded,omitempty"`
	// RetryAfterMillis hints when to poll again if no units were
	// granted (pending units are in backoff or leased elsewhere).
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// HeartbeatRequest extends Worker's lease on Unit and records progress.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Unit   UnitID `json:"unit"`
	Epoch  uint64 `json:"epoch"`
	// Note is the latest progress line (experiment checkpoint); the
	// coordinator keeps only the newest.
	Note string `json:"note,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
	// Abandon tells the worker to stop working on the unit: its lease
	// is stale (the unit was reassigned) or the unit is already
	// terminal. Continuing would be wasted work — the completion would
	// be fenced off anyway.
	Abandon bool `json:"abandon,omitempty"`
}

// CompleteRequest delivers a unit outcome under a lease epoch.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Unit   UnitID `json:"unit"`
	Epoch  uint64 `json:"epoch"`
	// OK marks success; Result is the rendered experiment output.
	OK     bool   `json:"ok"`
	Result string `json:"result,omitempty"`
	// Error and Artifact describe a failure: the final error string and
	// the runner's crash artifact (verbatim JSON), preserved per shard
	// by the coordinator.
	Error    string          `json:"error,omitempty"`
	Artifact json.RawMessage `json:"artifact,omitempty"`
	// Attempts is how many supervised attempts the worker spent.
	Attempts int `json:"attempts,omitempty"`
	// DurationMS is the worker-side wall clock across attempts.
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// CompleteResponse reports whether the outcome was merged (or already
// had been, idempotently). Accepted=false means the epoch was fenced
// off: the unit belongs to another worker now and this outcome is
// discarded.
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
}

// CompletedUnit is one unit's outcome inside a batched completion —
// the same payload as CompleteRequest minus the worker, which is
// shared by the whole batch.
type CompletedUnit struct {
	Unit       UnitID          `json:"unit"`
	Epoch      uint64          `json:"epoch"`
	OK         bool            `json:"ok"`
	Result     string          `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	Artifact   json.RawMessage `json:"artifact,omitempty"`
	Attempts   int             `json:"attempts,omitempty"`
	DurationMS int64           `json:"duration_ms,omitempty"`
}

// CompleteBatchRequest delivers several unit outcomes in one round
// trip — the first rung of completion pipelining: a herd of finishing
// workers costs one request per worker instead of one per unit, and
// the coordinator merges the batch under a single lock acquisition
// (and a single journal fsync).
type CompleteBatchRequest struct {
	Worker string          `json:"worker"`
	Units  []CompletedUnit `json:"units"`
}

// CompleteBatchResponse reports each outcome's fate, parallel to the
// request's Units. Semantics per entry are identical to
// CompleteResponse: false means the epoch was fenced off.
type CompleteBatchResponse struct {
	Accepted []bool `json:"accepted"`
}

// UnitEpoch identifies one lease in a release request.
type UnitEpoch struct {
	Unit  UnitID `json:"unit"`
	Epoch uint64 `json:"epoch"`
}

// ReleaseRequest voluntarily returns leases (graceful worker shutdown).
type ReleaseRequest struct {
	Worker string      `json:"worker"`
	Units  []UnitEpoch `json:"units"`
	Reason string      `json:"reason,omitempty"`
}

// ReleaseResponse counts the leases actually released (stale epochs are
// ignored).
type ReleaseResponse struct {
	Released int `json:"released"`
}

// Client is the worker's view of the coordinator. HTTPClient speaks the
// JSON protocol, over the network or, in RunFleet, over an in-process
// transport that calls the coordinator's handler directly; the worker
// wraps it in a circuit breaker.
type Client interface {
	Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error)
	CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error)
	Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error)
}

// Clock abstracts time so lease semantics are testable without real
// sleeps. The coordinator only ever calls Now (expiry is reaped lazily
// on API entry); workers also Sleep between polls and heartbeats.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ManualClock is a test clock advanced explicitly; Sleep blocks until
// Advance has moved the clock far enough. The zero value starts at the
// Unix epoch; use NewManualClock to pick an origin.
type ManualClock struct {
	mu   sync.Mutex
	cond *sync.Cond
	now  time.Time
}

// NewManualClock returns a manual clock reading start.
func NewManualClock(start time.Time) *ManualClock {
	c := &ManualClock{now: start}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d, waking any sleeper whose
// deadline has passed.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Sleep implements Clock against the manual time line, waking on
// Advance or on context cancellation.
func (c *ManualClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	stop := context.AfterFunc(ctx, c.cond.Broadcast)
	defer stop()
	c.mu.Lock()
	deadline := c.now.Add(d)
	for c.now.Before(deadline) {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return err
		}
		c.cond.Wait()
	}
	c.mu.Unlock()
	return ctx.Err()
}

// ReplicaUnits flattens an experiment × replica grid into units. With
// replicas <= 1 the unit IDs are the experiment IDs (so `ufsim
// -experiment` and `ufsim serve` resume each other's journals); with
// more replicas each unit gets a derived seed and an ID like "fig3#2".
func ReplicaUnits(experiments []string, baseSeed uint64, quick bool, replicas int) []Unit {
	if replicas < 1 {
		replicas = 1
	}
	units := make([]Unit, 0, len(experiments)*replicas)
	for _, id := range experiments {
		for r := 0; r < replicas; r++ {
			u := Unit{ID: UnitID(id), Experiment: id, Seed: baseSeed, Quick: quick}
			if replicas > 1 {
				u.ID = UnitID(fmt.Sprintf("%s#%d", id, r))
				// The same splitmix64 odd-constant mix the runner's
				// retry reseeding uses, keyed by replica.
				if r > 0 {
					u.Seed = baseSeed ^ (uint64(r) * 0x9E3779B97F4A7C15)
				}
			}
			units = append(units, u)
		}
	}
	return units
}
