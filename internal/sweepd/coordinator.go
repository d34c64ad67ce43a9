package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// ErrDegraded is returned by Wait when the coordinator has entered
// degraded mode: state persistence failed past its retry budget, new
// leases are refused, and the sweep cannot finish. The serve command
// maps it to a distinct exit code so automation never mistakes a
// non-resumable sweep for a healthy one.
var ErrDegraded = errors.New("sweepd: coordinator degraded: sweep state cannot be persisted")

// CoordinatorConfig tunes lease and quarantine policy.
type CoordinatorConfig struct {
	// LeaseTTL bounds how long a granted lease lives without a
	// heartbeat; zero means 30s.
	LeaseTTL time.Duration
	// ExpiryBudget caps how many times a unit's lease may expire before
	// the unit is quarantined; zero means 5. (A voluntary release does
	// not charge the budget.)
	ExpiryBudget int
	// QuarantineAfter is how many distinct workers must report a
	// failure before the unit is quarantined as poison; zero means 3.
	// The same worker failing twice counts once — a poison unit is one
	// that kills *anyone* who runs it, not one colocated with a bad
	// host.
	QuarantineAfter int
	// RetryBase is the base of the exponential backoff applied before
	// an expired or failed unit becomes leasable again; each
	// reassignment waits base·2^(n-1) plus a jitter drawn from
	// [0, RetryJitter). Zero means 500ms base with 250ms jitter.
	RetryBase   time.Duration
	RetryJitter time.Duration
	// Seed feeds the jitter stream, keeping reassignment schedules
	// reproducible in tests.
	Seed uint64
	// Clock supplies time; nil means the wall clock.
	Clock Clock
	// StateDir, when non-empty, receives the crash-proof sweep state
	// (journal-manifest.json naming the live snapshot-<gen>.json and
	// journal-<gen>.wal) and per-unit crash/quarantine artifacts. Empty
	// keeps everything in memory.
	StateDir string
	// Resume replays StateDir's durable state (snapshot + journal) and
	// keeps done outcomes whose unit grid matches. Quarantined units and
	// in-flight leases from the dead coordinator revert to pending; a
	// resumed quarantined unit keeps its failure history, so its next
	// failure quarantines it again.
	Resume bool
	// FS is the filesystem all StateDir persistence goes through; nil
	// means the real one (vfs.OS). Tests and chaos runs inject the
	// fault-driven filesystems from internal/faults here.
	FS vfs.FS
	// SnapshotEvery is how many journal records accumulate before a
	// compaction folds them into a snapshot; zero means
	// max(256, 4×units).
	SnapshotEvery int
	// PersistFailLimit is how many consecutive transitions may fail to
	// persist before the coordinator declares itself degraded: it stops
	// granting leases, surfaces `degraded` in /v1/status, and Wait
	// returns ErrDegraded. Zero means 3.
	PersistFailLimit int
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.ExpiryBudget <= 0 {
		c.ExpiryBudget = 5
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Millisecond
		if c.RetryJitter <= 0 {
			c.RetryJitter = 250 * time.Millisecond
		}
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	if c.FS == nil {
		c.FS = vfs.OS{}
	}
	if c.PersistFailLimit <= 0 {
		c.PersistFailLimit = 3
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// persistRetries bounds how many times one transition's journal append
// is retried (each retry rolls a fresh generation, which also clears a
// torn in-flight file).
const persistRetries = 2

// UnitFailure is one recorded failure of a unit on one worker.
type UnitFailure struct {
	Worker   string `json:"worker"`
	Epoch    uint64 `json:"epoch,omitempty"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts,omitempty"`
}

// unitRecord is the coordinator's book entry for one unit.
type unitRecord struct {
	unit  Unit
	state UnitState

	// epoch is the fencing token, bumped on every (re)lease; worker and
	// expiry describe the live lease.
	epoch  uint64
	worker string
	expiry time.Time

	// eligible gates re-leasing after an expiry or failure (backoff).
	eligible time.Time

	heartbeats int
	progress   string

	expiries int
	failures []UnitFailure
	// distinct is the set of workers in failures.
	distinct map[string]bool

	// merged marks that exactly one completion was accepted; completions
	// counts accepted merges (must never exceed 1 — exposed to tests).
	merged      bool
	completions int
	result      string
	attempts    int
	durationMS  int64
	// quarantine is the reason string for quarantined units.
	quarantine string
}

// Coordinator shards a sweep into units and arbitrates leases. All
// methods are safe for concurrent use; expired leases are reaped lazily
// at the top of every call, so no background goroutine is needed and a
// manual clock drives the full state machine in tests.
type Coordinator struct {
	cfg CoordinatorConfig

	mu       sync.Mutex
	units    map[UnitID]*unitRecord
	order    []UnitID
	rng      *sim.Rand
	draining bool
	// store is the durable journal (nil without StateDir); salvage
	// records a lossy recovery at open.
	store   *journalStore
	salvage *SalvageReport
	// persistFails counts consecutive failed checkpoint transitions;
	// at cfg.PersistFailLimit the coordinator goes (and stays)
	// degraded.
	persistFails   int
	degraded       bool
	degradedReason string
	// gate, when attached, supplies the overload pressure that
	// stretches lease RetryAfterMillis (brownout) and the admission
	// counters surfaced in Status.
	gate *Gate
	// doneCh closes when every unit is terminal.
	doneCh   chan struct{}
	doneOnce sync.Once
}

// NewCoordinator builds a coordinator over the unit grid. With
// cfg.Resume set and matching durable state in cfg.StateDir, done
// outcomes are restored so only unfinished and failed units run.
func NewCoordinator(cfg CoordinatorConfig, units []Unit) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		units:  make(map[UnitID]*unitRecord, len(units)),
		rng:    sim.NewRand(cfg.Seed ^ 0x5eedd),
		doneCh: make(chan struct{}),
	}
	for _, u := range units {
		if _, dup := c.units[u.ID]; dup {
			return nil, fmt.Errorf("sweepd: duplicate unit id %q", u.ID)
		}
		c.units[u.ID] = &unitRecord{unit: u, state: UnitPending, distinct: map[string]bool{}}
		c.order = append(c.order, u.ID)
	}
	if c.cfg.SnapshotEvery <= 0 {
		// Amortize: one O(units) compaction per a few journal passes
		// over the grid, with a floor so small sweeps barely compact.
		c.cfg.SnapshotEvery = 4 * len(units)
		if c.cfg.SnapshotEvery < 256 {
			c.cfg.SnapshotEvery = 256
		}
	}
	if cfg.StateDir != "" {
		store, entries, salvage, err := loadJournal(c.cfg.FS, cfg.StateDir, cfg.Resume, cfg.Log)
		if err != nil {
			return nil, err
		}
		c.store = store
		c.salvage = salvage
		c.mu.Lock()
		restored := c.applyEntriesLocked(entries)
		// The loaded store is dirty, so this compacts the whole table
		// into the first generation, retried like any transition.
		if err := c.persistEntriesLocked(nil); err != nil {
			// No generation this coordinator owns is durable, so nothing
			// it merges could be either: refuse work from the start.
			c.degradeLocked(fmt.Sprintf("bootstrap snapshot not durable after %d attempt(s): %v", persistRetries+1, err))
		}
		c.mu.Unlock()
		if restored > 0 {
			fmt.Fprintf(cfg.Log, "sweepd: resumed %d done unit(s) from %s (journal generation %d)\n", restored, cfg.StateDir, store.gen)
		}
	}
	c.mu.Lock()
	c.checkDoneLocked()
	c.mu.Unlock()
	return c, nil
}

// Salvage reports whether (and how) the journal recovery at startup was
// lossy; nil means clean.
func (c *Coordinator) Salvage() *SalvageReport { return c.salvage }

// Close releases the journal handle. State is already durable — every
// transition was fsynced when it happened.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.Close()
}

// AttachGate connects an admission gate: its queue pressure stretches
// the lease RetryAfterMillis hint (brownout before blackout) and its
// counters appear in Snapshot/StatusJSON. Attach before serving
// traffic.
func (c *Coordinator) AttachGate(g *Gate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gate = g
}

// Degraded reports whether the coordinator has stopped granting leases
// because sweep state can no longer be persisted, and why.
func (c *Coordinator) Degraded() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded, c.degradedReason
}

// Lease grants up to req.Max pending units to req.Worker.
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)

	if c.draining {
		return LeaseResponse{Draining: true, Done: c.allTerminalLocked()}
	}
	if c.allTerminalLocked() {
		return LeaseResponse{Done: true}
	}
	if c.degraded {
		// Refusing is the honest move: a lease granted now could
		// complete work whose merge the coordinator cannot make
		// durable, and "crash-proof" must not silently become
		// best-effort.
		return LeaseResponse{Degraded: true}
	}
	max := req.Max
	if max < 1 {
		max = 1
	}
	var resp LeaseResponse
	nextEligible := time.Time{}
	for _, id := range c.order {
		if len(resp.Units) >= max {
			break
		}
		r := c.units[id]
		if r.state != UnitPending {
			continue
		}
		if r.eligible.After(now) {
			if nextEligible.IsZero() || r.eligible.Before(nextEligible) {
				nextEligible = r.eligible
			}
			continue
		}
		r.epoch++
		r.state = UnitLeased
		r.worker = req.Worker
		r.expiry = now.Add(c.cfg.LeaseTTL)
		r.heartbeats = 0
		resp.Units = append(resp.Units, LeasedUnit{
			Unit:      r.unit,
			Epoch:     r.epoch,
			TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		})
	}
	if len(resp.Units) == 0 {
		// Nothing grantable right now: everything is leased out or in
		// backoff. Hint a poll interval — the earliest backoff expiry,
		// else a third of the TTL (the cadence at which a wedged lease
		// can first be reaped).
		retry := c.cfg.LeaseTTL / 3
		if !nextEligible.IsZero() {
			if d := nextEligible.Sub(now); d < retry {
				retry = d
			}
		}
		if retry < time.Millisecond {
			retry = time.Millisecond
		}
		if c.gate != nil {
			// Brownout: stretch the poll hint as admission queues fill,
			// shaping the herd's cadence down *before* the gate has to
			// shed anything. At full pressure polls arrive 4× slower.
			retry = time.Duration(float64(retry) * (1 + 3*c.gate.Pressure()))
		}
		resp.RetryAfterMillis = retry.Milliseconds()
	}
	// A grant persists nothing: a leased unit is durably still pending
	// (a restarted coordinator cannot honor epochs it never granted), so
	// leasing costs zero I/O.
	return resp
}

// Heartbeat extends a live lease and records progress.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)

	r, ok := c.units[req.Unit]
	if !ok {
		return HeartbeatResponse{Abandon: true}
	}
	if r.state.Terminal() || r.epoch != req.Epoch || r.worker != req.Worker {
		// Stale lease: the unit was reassigned (or finished) while this
		// worker was partitioned or slow. Any completion it eventually
		// sends will be fenced off, so tell it to stop now.
		return HeartbeatResponse{Abandon: true}
	}
	if r.state == UnitPending {
		// Reaped just above: the lease expired before this heartbeat
		// arrived. The unit is already back in circulation.
		return HeartbeatResponse{Abandon: true}
	}
	r.state = UnitHeartbeating
	r.heartbeats++
	if req.Note != "" {
		r.progress = req.Note
	}
	r.expiry = now.Add(c.cfg.LeaseTTL)
	return HeartbeatResponse{OK: true}
}

// Complete merges a unit outcome, exactly once per unit. Outcomes under
// a stale epoch are rejected; redelivery of the merged outcome under the
// merging epoch is acknowledged idempotently.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)

	accepted, changed := c.completeOneLocked(now, req.Worker, CompletedUnit{
		Unit: req.Unit, Epoch: req.Epoch, OK: req.OK, Result: req.Result,
		Error: req.Error, Artifact: req.Artifact, Attempts: req.Attempts,
		DurationMS: req.DurationMS,
	})
	if changed != nil {
		c.persistUnitLocked(changed)
	}
	c.checkDoneLocked()
	return CompleteResponse{Accepted: accepted}
}

// CompleteBatch merges several outcomes from one worker under a single
// lock acquisition, one reap, and one group-commit journal fsync, so a
// herd of finishing workers costs one round trip per worker instead of
// one per unit. Per-entry semantics are exactly Complete's.
func (c *Coordinator) CompleteBatch(req CompleteBatchRequest) CompleteBatchResponse {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)

	resp := CompleteBatchResponse{Accepted: make([]bool, len(req.Units))}
	var changed []*unitRecord
	for i, cu := range req.Units {
		ok, ch := c.completeOneLocked(now, req.Worker, cu)
		resp.Accepted[i] = ok
		if ch != nil {
			changed = append(changed, ch)
		}
	}
	c.persistUnitsLocked(changed)
	c.checkDoneLocked()
	return resp
}

// completeOneLocked merges one outcome: the single source of truth for
// fencing and idempotency, shared by Complete and CompleteBatch. It
// returns whether the outcome was accepted and, when the unit's durable
// state changed, the record the caller must persist (singly or as part
// of a batch group-commit).
func (c *Coordinator) completeOneLocked(now time.Time, worker string, cu CompletedUnit) (accepted bool, changed *unitRecord) {
	r, ok := c.units[cu.Unit]
	if !ok {
		return false, nil
	}
	if r.state.Terminal() {
		// Idempotent ack for the worker whose earlier delivery merged
		// but whose response was lost; anyone else is fenced off.
		return r.epoch == cu.Epoch && r.worker == worker, nil
	}
	if r.epoch != cu.Epoch || r.worker != worker {
		return false, nil
	}
	// Note a pending unit can land here: its lease expired (reaped
	// above) but it has not been re-leased, so the epoch still matches.
	// The work is real and unduplicated — merge it.
	if cu.OK {
		r.state = UnitDone
		r.merged = true
		r.completions++
		r.result = cu.Result
		r.attempts = cu.Attempts
		r.durationMS = cu.DurationMS
		fmt.Fprintf(c.cfg.Log, "sweepd: %s done by %s (epoch %d, %d attempt(s))\n", r.unit.ID, worker, cu.Epoch, cu.Attempts)
		c.writeResultLocked(r)
		return true, r
	}
	// A redelivered failure (the worker's response was dropped and
	// it retried under the same lease) must not double-count.
	for _, f := range r.failures {
		if f.Worker == worker && f.Epoch == cu.Epoch {
			return true, nil
		}
	}
	r.failures = append(r.failures, UnitFailure{Worker: worker, Epoch: cu.Epoch, Error: cu.Error, Attempts: cu.Attempts})
	r.distinct[worker] = true
	c.writeCrashLocked(r, worker, cu)
	if len(r.distinct) >= c.cfg.QuarantineAfter {
		c.quarantineLocked(r, fmt.Sprintf("failed on %d distinct worker(s)", len(r.distinct)))
	} else {
		// Back to pending behind a backoff window; the next lease
		// bumps the epoch and fences this one off.
		r.state = UnitPending
		r.expiry = time.Time{}
		c.benchLocked(r, now, len(r.failures))
		fmt.Fprintf(c.cfg.Log, "sweepd: %s failed on %s (%d distinct worker(s)); retrying after backoff\n", r.unit.ID, worker, len(r.distinct))
	}
	return true, r
}

// Release voluntarily returns leases; stale epochs are ignored. A
// released unit re-enters the pending pool immediately and without
// charging the expiry budget — the worker is shutting down cleanly, not
// misbehaving.
func (c *Coordinator) Release(req ReleaseRequest) ReleaseResponse {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)

	var n int
	for _, ue := range req.Units {
		r, ok := c.units[ue.Unit]
		if !ok || r.state.Terminal() || r.state == UnitPending {
			continue
		}
		if r.epoch != ue.Epoch || r.worker != req.Worker {
			continue
		}
		r.state = UnitPending
		r.worker = ""
		r.expiry = time.Time{}
		r.eligible = now
		n++
	}
	if n > 0 {
		// Durably a no-op: a released unit goes back to exactly the
		// pending entry already on disk.
		fmt.Fprintf(c.cfg.Log, "sweepd: %s released %d lease(s) (%s)\n", req.Worker, n, req.Reason)
	}
	return ReleaseResponse{Released: n}
}

// reapLocked expires overdue leases: the unit returns to pending behind
// a jittered backoff, and a unit that has burned its expiry budget is
// quarantined. Called with the lock held at the top of every API method.
func (c *Coordinator) reapLocked(now time.Time) {
	var changed []*unitRecord
	for _, id := range c.order {
		r := c.units[id]
		if r.state != UnitLeased && r.state != UnitHeartbeating {
			continue
		}
		if r.expiry.After(now) {
			continue
		}
		changed = append(changed, r)
		r.expiries++
		fmt.Fprintf(c.cfg.Log, "sweepd: lease on %s by %s expired (%d/%d)\n", r.unit.ID, r.worker, r.expiries, c.cfg.ExpiryBudget)
		if r.expiries >= c.cfg.ExpiryBudget {
			c.quarantineLocked(r, fmt.Sprintf("lease expired %d time(s)", r.expiries))
			continue
		}
		// The unit returns to pending but keeps its lease identity
		// (worker, epoch): a slow-but-real completion from the expired
		// holder still merges until a re-lease bumps the epoch and
		// fences it off.
		r.state = UnitPending
		r.expiry = time.Time{}
		c.benchLocked(r, now, r.expiries)
	}
	if len(changed) > 0 {
		// An expiry charges the unit's budget (and may quarantine it) —
		// that is real state, one journal record per unit.
		for _, r := range changed {
			c.persistUnitLocked(r)
		}
		c.checkDoneLocked()
	}
}

// benchLocked sidelines a unit for the nth backoff window:
// base·2^(n-1) plus deterministic jitter.
func (c *Coordinator) benchLocked(r *unitRecord, now time.Time, n int) {
	if n < 1 {
		n = 1
	}
	backoff := c.cfg.RetryBase << uint(n-1)
	if c.cfg.RetryJitter > 0 {
		backoff += time.Duration(c.rng.IntN(int(c.cfg.RetryJitter)))
	}
	r.eligible = now.Add(backoff)
}

// quarantineLocked retires a poison unit, preserving its failure
// history as an artifact.
func (c *Coordinator) quarantineLocked(r *unitRecord, reason string) {
	r.state = UnitQuarantined
	r.quarantine = reason
	r.worker = ""
	r.expiry = time.Time{}
	fmt.Fprintf(c.cfg.Log, "sweepd: QUARANTINED %s: %s\n", r.unit.ID, reason)
	c.writeQuarantineLocked(r)
}

// Drain stops granting leases; in-flight units may still complete (or
// expire). Workers observe Draining on their next lease poll and exit.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.draining {
		c.draining = true
		fmt.Fprintln(c.cfg.Log, "sweepd: draining — no new leases")
	}
}

// Quiesced reports whether no lease is live (every unit is terminal or
// pending); a draining coordinator can shut down once quiesced.
func (c *Coordinator) Quiesced() bool {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	for _, r := range c.units {
		if r.state == UnitLeased || r.state == UnitHeartbeating {
			return false
		}
	}
	return true
}

// Done returns a channel closed when every unit is terminal.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the sweep finishes or ctx is done. Polling drives
// the lazy reaper so even a sweep whose workers all vanished terminates
// (by expiry, then quarantine).
func (c *Coordinator) Wait(ctx context.Context, poll time.Duration) error {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		select {
		case <-c.doneCh:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		// Reap under the current clock, then sleep a poll interval.
		c.Quiesced()
		select {
		case <-c.doneCh:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if deg, _ := c.Degraded(); deg {
			// The sweep cannot finish: pending units are unleasable and
			// their outcomes could not be made durable anyway.
			return ErrDegraded
		}
		if err := c.cfg.Clock.Sleep(ctx, poll); err != nil {
			return err
		}
	}
}

func (c *Coordinator) allTerminalLocked() bool {
	for _, r := range c.units {
		if !r.state.Terminal() {
			return false
		}
	}
	return true
}

func (c *Coordinator) checkDoneLocked() {
	if c.allTerminalLocked() {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// UnitStatus is one unit's externally visible state.
type UnitStatus struct {
	Unit        Unit          `json:"unit"`
	State       UnitState     `json:"state"`
	Worker      string        `json:"worker,omitempty"`
	Epoch       uint64        `json:"epoch,omitempty"`
	Heartbeats  int           `json:"heartbeats,omitempty"`
	Progress    string        `json:"progress,omitempty"`
	Expiries    int           `json:"expiries,omitempty"`
	Failures    []UnitFailure `json:"failures,omitempty"`
	Completions int           `json:"completions,omitempty"`
	Attempts    int           `json:"attempts,omitempty"`
	Quarantine  string        `json:"quarantine,omitempty"`
}

// Status is the sweep snapshot served at /v1/status.
type Status struct {
	Pending     int  `json:"pending"`
	Leased      int  `json:"leased"`
	Done        int  `json:"done"`
	Quarantined int  `json:"quarantined"`
	Draining    bool `json:"draining,omitempty"`
	// Degraded means state persistence failed past its retry budget:
	// no new leases are granted and the sweep is not resumable past
	// its last durable transition.
	Degraded       bool         `json:"degraded,omitempty"`
	DegradedReason string       `json:"degraded_reason,omitempty"`
	Units          []UnitStatus `json:"units"`
	// Overload carries the attached admission gate's shed/queue/breaker
	// counters; nil when no gate is attached.
	Overload *OverloadStats `json:"overload,omitempty"`
}

// Snapshot returns the current sweep status, reaping first so the view
// is current under the configured clock.
func (c *Coordinator) Snapshot() Status {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)

	st := Status{Draining: c.draining, Degraded: c.degraded, DegradedReason: c.degradedReason}
	if c.gate != nil {
		o := c.gate.Stats()
		st.Overload = &o
	}
	for _, id := range c.order {
		r := c.units[id]
		switch r.state {
		case UnitPending:
			st.Pending++
		case UnitLeased, UnitHeartbeating:
			st.Leased++
		case UnitDone:
			st.Done++
		case UnitQuarantined:
			st.Quarantined++
		}
		st.Units = append(st.Units, UnitStatus{
			Unit:        r.unit,
			State:       r.state,
			Worker:      r.worker,
			Epoch:       r.epoch,
			Heartbeats:  r.heartbeats,
			Progress:    r.progress,
			Expiries:    r.expiries,
			Failures:    append([]UnitFailure(nil), r.failures...),
			Completions: r.completions,
			Attempts:    r.attempts,
			Quarantine:  r.quarantine,
		})
	}
	return st
}

// Result returns a done unit's rendered output.
func (c *Coordinator) Result(id UnitID) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.units[id]
	if !ok || r.state != UnitDone {
		return "", false
	}
	return r.result, true
}

// FinalStatusName is the sweep's end-of-run record inside StateDir:
// StatusJSON as the sweep ended, every unit's state plus the overload
// counters, for operators and CI artifact uploads. The sweep's runner
// writes it; resume never reads it.
const FinalStatusName = "status-final.json"

// StatusJSON renders the snapshot, for the HTTP status endpoint and the
// final status.
func (c *Coordinator) StatusJSON() ([]byte, error) {
	return json.MarshalIndent(c.Snapshot(), "", "  ")
}

// sortedIDs returns unit IDs in grid order (stable across runs).
func (c *Coordinator) sortedIDs() []UnitID {
	ids := append([]UnitID(nil), c.order...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
