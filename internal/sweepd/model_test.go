package sweepd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
)

// The coordinator is checked against coordModel, a sequential model of
// the unit table (DESIGN.md §8): fencing epochs, the expiry and
// distinct-worker budgets, backoff eligibility (no jitter), degraded
// mode and resume, with no lock, journal or disk. A transition either
// persists or fails, so a crash-restart resumes the table as of the last
// transition that persisted. Scripts of lease, heartbeat, CompleteBatch,
// release, clock-advance, crash-restart and kill/revive-disk calls drive
// a coordinator on faults.NewFaultyDisk(nil, cfg, seed). On a fault-free
// disk every response, Snapshot, Result and the Done channel must match
// the model, and Fsck must find no corruption at each crash. On every
// disk, after every step:
//
//   - no unit shows more than one completion;
//   - a unit a resumed coordinator restores as done had a completion
//     accepted before the crash;
//   - within one lifetime a unit's epoch never decreases (leases are not
//     journaled: across a resume a unit with no failures restarts at 1);
//   - a grant's epoch is above every epoch in the unit's failure history;
//   - a degraded coordinator grants nothing, and its Wait returns
//     ErrDegraded unless every unit is terminal.
//
// FuzzCoordinator decodes scripts from bytes; coordSeeds holds the named
// scripts that plain `go test` replays.

type modelUnit struct {
	UnitStatus
	expiry, eligible time.Time
	result           string
}

type coordModel struct {
	ttl, base                                       time.Duration
	expiryBudget, quarantineAfter, persistFailLimit int
	units                                           []*modelUnit
	// durable is the table as of the last persisted transition; while
	// broken every persist fails, and fails counts the consecutive ones.
	durable          []modelUnit
	broken, degraded bool
	fails            int
}

// newCoordModel builds the table for grid over the durable rows a
// crashed coordinator left behind (nil for none), then persists it.
func newCoordModel(cfg CoordinatorConfig, grid []Unit, durable []modelUnit) *coordModel {
	m := &coordModel{ttl: cfg.LeaseTTL, base: cfg.RetryBase, expiryBudget: cfg.ExpiryBudget,
		quarantineAfter: cfg.QuarantineAfter, persistFailLimit: cfg.PersistFailLimit, durable: durable}
	for _, u := range grid {
		mu := &modelUnit{UnitStatus: UnitStatus{Unit: u, State: UnitPending}}
		for _, old := range durable {
			if old.Unit != u {
				continue
			}
			mu.Expiries, mu.Completions, mu.Attempts = old.Expiries, old.Completions, old.Attempts
			mu.Failures = append([]UnitFailure(nil), old.Failures...)
			for _, f := range mu.Failures {
				mu.Epoch = max(mu.Epoch, f.Epoch)
			}
			if old.State == UnitDone {
				mu.State = UnitDone
			}
		}
		m.units = append(m.units, mu)
	}
	m.persist()
	return m
}

// persist makes one transition durable, or counts its failure.
func (m *coordModel) persist() {
	switch {
	case m.degraded:
	case m.broken:
		m.fails++
		m.degraded = m.fails >= m.persistFailLimit
	default:
		m.fails, m.durable = 0, nil
		for _, u := range m.units {
			row := *u
			row.Failures = append([]UnitFailure(nil), u.Failures...)
			m.durable = append(m.durable, row)
		}
	}
}

func (m *coordModel) find(id UnitID) *modelUnit {
	for _, u := range m.units {
		if u.Unit.ID == id {
			return u
		}
	}
	return nil
}

func (m *coordModel) allTerminal() bool {
	for _, u := range m.units {
		if !u.State.Terminal() {
			return false
		}
	}
	return true
}

func (m *coordModel) reap(now time.Time) {
	for _, u := range m.units {
		if u.State != UnitLeased && u.State != UnitHeartbeating || u.expiry.After(now) {
			continue
		}
		if u.Expiries++; u.Expiries >= m.expiryBudget {
			u.State, u.Worker, u.Quarantine = UnitQuarantined, "", fmt.Sprintf("lease expired %d time(s)", u.Expiries)
		} else {
			u.State, u.eligible = UnitPending, now.Add(m.base<<(u.Expiries-1))
		}
		m.persist()
	}
}

func (m *coordModel) lease(now time.Time, req LeaseRequest) LeaseResponse {
	m.reap(now)
	switch {
	case m.allTerminal():
		return LeaseResponse{Done: true}
	case m.degraded:
		return LeaseResponse{Degraded: true}
	}
	var resp LeaseResponse
	var next time.Time
	for _, u := range m.units {
		if u.State != UnitPending || len(resp.Units) >= max(req.Max, 1) {
			continue
		}
		if u.eligible.After(now) {
			if next.IsZero() || u.eligible.Before(next) {
				next = u.eligible
			}
			continue
		}
		u.Epoch++
		u.State, u.Worker, u.expiry, u.Heartbeats = UnitLeased, req.Worker, now.Add(m.ttl), 0
		resp.Units = append(resp.Units, LeasedUnit{Unit: u.Unit, Epoch: u.Epoch, TTLMillis: m.ttl.Milliseconds()})
	}
	if len(resp.Units) == 0 {
		retry := m.ttl / 3
		if !next.IsZero() {
			retry = min(retry, next.Sub(now))
		}
		resp.RetryAfterMillis = max(retry, time.Millisecond).Milliseconds()
	}
	return resp
}

func (m *coordModel) heartbeat(now time.Time, req HeartbeatRequest) HeartbeatResponse {
	m.reap(now)
	u := m.find(req.Unit)
	if u == nil || u.Epoch != req.Epoch || u.Worker != req.Worker || u.State != UnitLeased && u.State != UnitHeartbeating {
		return HeartbeatResponse{Abandon: true}
	}
	u.State, u.expiry = UnitHeartbeating, now.Add(m.ttl)
	u.Heartbeats++
	if req.Note != "" {
		u.Progress = req.Note
	}
	return HeartbeatResponse{OK: true}
}

func (m *coordModel) completeBatch(now time.Time, req CompleteBatchRequest) CompleteBatchResponse {
	m.reap(now)
	resp := CompleteBatchResponse{Accepted: make([]bool, len(req.Units))}
	changed := false
	for i, cu := range req.Units {
		var ch bool
		resp.Accepted[i], ch = m.complete(now, req.Worker, cu)
		changed = changed || ch
	}
	if changed {
		m.persist() // one group commit
	}
	return resp
}

// complete merges one outcome and reports whether it was accepted and
// whether it changed the unit's durable state.
func (m *coordModel) complete(now time.Time, worker string, cu CompletedUnit) (accepted, changed bool) {
	u := m.find(cu.Unit)
	switch {
	case u == nil:
		return false, false
	case u.State.Terminal():
		return u.Epoch == cu.Epoch && u.Worker == worker, false // idempotent re-ack
	case u.Epoch != cu.Epoch || u.Worker != worker:
		return false, false // fenced
	case cu.OK:
		u.State, u.result, u.Attempts = UnitDone, cu.Result, cu.Attempts
		u.Completions++
		return true, true
	}
	distinct := map[string]bool{worker: true}
	for _, f := range u.Failures {
		if f.Worker == worker && f.Epoch == cu.Epoch {
			return true, false // redelivered failure
		}
		distinct[f.Worker] = true
	}
	u.Failures = append(u.Failures, UnitFailure{Worker: worker, Epoch: cu.Epoch, Error: cu.Error, Attempts: cu.Attempts})
	if len(distinct) >= m.quarantineAfter {
		u.State, u.Worker, u.Quarantine = UnitQuarantined, "", fmt.Sprintf("failed on %d distinct worker(s)", len(distinct))
	} else {
		u.State, u.eligible = UnitPending, now.Add(m.base<<(len(u.Failures)-1))
	}
	return true, true
}

func (m *coordModel) release(now time.Time, req ReleaseRequest) ReleaseResponse {
	m.reap(now)
	n := 0
	for _, ue := range req.Units {
		u := m.find(ue.Unit)
		if u == nil || u.State != UnitLeased && u.State != UnitHeartbeating || u.Epoch != ue.Epoch || u.Worker != req.Worker {
			continue
		}
		u.State, u.Worker, u.eligible = UnitPending, "", now
		n++
	}
	return ReleaseResponse{Released: n}
}

func (m *coordModel) snapshot(now time.Time) Status {
	m.reap(now)
	st := Status{Degraded: m.degraded}
	for _, u := range m.units {
		switch u.State {
		case UnitPending:
			st.Pending++
		case UnitLeased, UnitHeartbeating:
			st.Leased++
		case UnitDone:
			st.Done++
		case UnitQuarantined:
			st.Quarantined++
		}
		us := u.UnitStatus
		us.Failures = append([]UnitFailure(nil), u.Failures...)
		st.Units = append(st.Units, us)
	}
	return st
}

// Script layout: a 4-byte header — units, QuarantineAfter,
// ExpiryBudget, disk — then one call kind per byte from the front and
// each call's operands (coordArity of a, b, c) from the back, last byte
// first, so a byte the fuzzer inserts or deletes adds or drops one call,
// or shifts the operands, instead of misaligning every later call. An
// odd disk byte injects write, short-write, fsync and rename faults,
// each with probability ((disk>>1)%8+1)/16, seeded by disk>>4.
const (
	coordMaxOps = 48
	coordHeader = 4
)

type coordKind byte

const (
	cLease     coordKind = iota // worker a%4, max b%3+1
	cHeartbeat                  // grant c, note b
	cComplete                   // a%3+1 entries from grant c on; entry i OK if b bit i; b&0x80 bumps the first epoch
	cRelease                    // a%2+1 entries from grant c on
	cAdvance                    // clock += (a|b<<8) × 100ms
	cRestart                    // crash and resume; a%4 == 3 resumes a different grid (other seed)
	cDisk                       // a odd: the disk dies (DiskFS.CrashAfter) until a restart reboots it; even: it revives
	coordKinds
)

// A call's worker is its grant's, unless a&0x80 names workers[(a>>4)%4].
var workers = []string{"w0", "w1", "w2", "w3"}

type coordOp struct {
	kind    coordKind
	a, b, c byte
}

var coordArity = [coordKinds]int{cLease: 2, cHeartbeat: 3, cComplete: 3, cRelease: 3, cAdvance: 2, cRestart: 1, cDisk: 1}

// decodeCoord reads the calls that follow a script's header.
func decodeCoord(data []byte) []coordOp {
	var ops []coordOp
	end := len(data)
	for i := 0; i < end && len(ops) < coordMaxOps; i++ {
		op := coordOp{kind: coordKind(data[i] % byte(coordKinds))}
		for _, arg := range []*byte{&op.a, &op.b, &op.c}[:coordArity[op.kind]] {
			if end > i+1 {
				end--
				*arg = data[end]
			}
		}
		ops = append(ops, op)
	}
	return ops
}

type grant struct {
	worker string
	unit   Unit
	epoch  uint64
}

type coordHarness struct {
	t          *testing.T
	disk       *faults.DiskFS
	unmodelled bool // a faulty or crash-armed disk: only the invariants apply
	killed     bool // the disk has been dead: artifacts may be missing
	clk        *ManualClock
	cfg        CoordinatorConfig
	grids      [2][]Unit
	c          *Coordinator
	m          *coordModel // nil when unmodelled
	grants     []grant
	// accepted holds every unit a completion was accepted for, across
	// lifetimes; epochs the highest epoch each unit showed this lifetime.
	accepted map[Unit]bool
	epochs   map[UnitID]uint64
	last     Status
}

func newCoordHarness(t *testing.T, header []byte) *coordHarness {
	h := &coordHarness{t: t, clk: NewManualClock(time.Unix(0, 0)), accepted: map[Unit]bool{}}
	var cfg faults.DiskConfig
	if disk := header[3]; disk%2 == 1 {
		p := float64((disk>>1)%8+1) / 16
		cfg = faults.DiskConfig{WriteErrProb: p, ShortWriteProb: p, SyncErrProb: p, RenameErrProb: p}
		h.unmodelled = true
	}
	h.disk = faults.NewFaultyDisk(nil, cfg, uint64(header[3]>>4))
	h.cfg = CoordinatorConfig{
		LeaseTTL:         time.Minute,
		ExpiryBudget:     int(header[2]%3) + 1,
		QuarantineAfter:  int(header[1]%3) + 1,
		RetryBase:        time.Second,
		RetryJitter:      0,
		Clock:            h.clk,
		StateDir:         "state",
		FS:               h.disk,
		SnapshotEvery:    2, // roll generations often: the multi-file commit is where crash bugs hide
		PersistFailLimit: 2,
		Log:              io.Discard,
	}
	h.grids[0] = testUnits(int(header[0]%4) + 1)
	h.grids[1] = append([]Unit(nil), h.grids[0]...)
	for i := range h.grids[1] {
		h.grids[1][i].Seed = 0xDEAD
	}
	return h
}

// play opens the coordinator and runs the script's calls.
func (h *coordHarness) play(data []byte) {
	h.t.Helper()
	h.open(h.grids[0], false)
	for _, op := range decodeCoord(data[coordHeader:]) {
		h.step(op)
	}
}

// finish drives what is left of the sweep to its end: every unit must
// become terminal.
func (h *coordHarness) finish() {
	h.t.Helper()
	for round := 0; h.last.Pending+h.last.Leased > 0; round++ {
		if round > 100 || h.last.Degraded {
			h.t.Fatalf("sweep did not finish: %+v", h.last)
		}
		n := len(h.grants)
		if h.step(lease(0, 3)); len(h.grants) > n {
			h.step(coordOp{kind: cComplete, a: byte(len(h.grants) - n - 1), b: 7, c: byte(n)})
		} else {
			h.step(advance(2 * sec))
		}
	}
}

func (h *coordHarness) open(grid []Unit, resume bool) {
	h.t.Helper()
	cfg := h.cfg
	cfg.Resume = resume
	c, err := NewCoordinator(cfg, grid)
	if err != nil {
		h.t.Fatalf("NewCoordinator (resume %v): %v", resume, err)
	}
	if !h.unmodelled {
		var durable []modelUnit
		if h.m != nil {
			durable = h.m.durable
		}
		h.m = newCoordModel(cfg, grid, durable)
	}
	h.c, h.epochs = c, map[UnitID]uint64{}
	h.check("open")
	for _, u := range h.last.Units {
		if resume && u.State == UnitDone && !h.accepted[u.Unit] {
			h.t.Fatalf("resume restored %s as done, but no completion of it was accepted", u.Unit.ID)
		}
	}
}

// grantAt returns the ith grant from index c on (a made-up one before
// any lease); worker names who calls about it.
func (h *coordHarness) grantAt(c byte, i int) grant {
	if len(h.grants) == 0 {
		return grant{worker: workers[0], unit: h.grids[0][0], epoch: 1}
	}
	return h.grants[(int(c)+i)%len(h.grants)]
}

func worker(a byte, g grant) string {
	if a&0x80 != 0 {
		return workers[(a>>4)%4]
	}
	return g.worker
}

func (h *coordHarness) step(op coordOp) {
	h.t.Helper()
	now := h.clk.Now()
	var got, want any
	switch op.kind {
	case cLease:
		req := LeaseRequest{Worker: workers[op.a%4], Max: int(op.b%3) + 1}
		degraded, _ := h.c.Degraded()
		resp := h.c.Lease(req)
		got = resp
		if h.m != nil {
			want = h.m.lease(now, req)
		}
		if degraded && len(resp.Units) > 0 {
			h.t.Fatalf("degraded coordinator granted %+v", resp.Units)
		}
		for _, lu := range resp.Units {
			for _, f := range h.status(lu.Unit.ID).Failures {
				if lu.Epoch <= f.Epoch {
					h.t.Fatalf("%s granted epoch %d, not above its recorded failure at epoch %d", lu.Unit.ID, lu.Epoch, f.Epoch)
				}
			}
			h.grants = append(h.grants, grant{req.Worker, lu.Unit, lu.Epoch})
		}
	case cHeartbeat:
		g := h.grantAt(op.c, 0)
		req := HeartbeatRequest{Worker: worker(op.a, g), Unit: g.unit.ID, Epoch: g.epoch, Note: fmt.Sprint("step ", op.b)}
		got = h.c.Heartbeat(req)
		if h.m != nil {
			want = h.m.heartbeat(now, req)
		}
	case cComplete:
		req := CompleteBatchRequest{Worker: worker(op.a, h.grantAt(op.c, 0))}
		for i := 0; i < int(op.a%3)+1; i++ {
			g := h.grantAt(op.c, i)
			// An outcome carries both texts: the coordinator keeps the
			// one its OK flag selects.
			cu := CompletedUnit{Unit: g.unit.ID, Epoch: g.epoch, OK: op.b&(1<<i) != 0, Error: "boom", Attempts: 1}
			if i == 0 && op.b&0x80 != 0 {
				cu.Epoch++
			}
			cu.Result = fmt.Sprintf("%s by %s at epoch %d", cu.Unit, req.Worker, cu.Epoch)
			req.Units = append(req.Units, cu)
		}
		resp := h.c.CompleteBatch(req)
		got = resp
		if h.m != nil {
			want = h.m.completeBatch(now, req)
		}
		for i, cu := range req.Units {
			if cu.OK && resp.Accepted[i] {
				h.accepted[h.status(cu.Unit).Unit] = true
			}
		}
	case cRelease:
		req := ReleaseRequest{Worker: worker(op.a, h.grantAt(op.c, 0)), Reason: "script"}
		for i := 0; i < int(op.a%2)+1; i++ {
			g := h.grantAt(op.c, i)
			req.Units = append(req.Units, UnitEpoch{Unit: g.unit.ID, Epoch: g.epoch})
		}
		got = h.c.Release(req)
		if h.m != nil {
			want = h.m.release(now, req)
		}
	case cAdvance:
		h.clk.Advance(time.Duration(int(op.a)|int(op.b)<<8) * 100 * time.Millisecond)
	case cDisk:
		if h.disk.CrashAfter(-1); op.a%2 == 1 {
			h.disk.CrashAfter(h.disk.Ops())
			h.killed = true
		}
		if h.m != nil {
			h.m.broken = op.a%2 == 1
		}
	case cRestart:
		h.disk.Crash() // the coordinator is dropped, unsynced bytes are lost
		if !h.unmodelled {
			rep, err := Fsck(h.disk, h.cfg.StateDir)
			if err != nil || !rep.Clean() {
				h.t.Fatalf("fsck after a crash on a fault-free disk: %v %v", err, rep.Corruptions)
			}
		}
		h.open(h.grids[op.a%4/3], true)
		return
	}
	if h.m != nil && !reflect.DeepEqual(got, want) {
		h.t.Fatalf("%+v: response diverged from the model\ncoordinator: %+v\nmodel:       %+v", op, got, want)
	}
	h.check(fmt.Sprintf("%+v", op))
}

// status returns id's row in the last snapshot.
func (h *coordHarness) status(id UnitID) UnitStatus {
	for _, u := range h.last.Units {
		if u.Unit.ID == id {
			return u
		}
	}
	return UnitStatus{}
}

// check snapshots the coordinator, compares it with the model on a
// fault-free disk, and checks the invariants.
func (h *coordHarness) check(after string) {
	h.t.Helper()
	st := h.c.Snapshot()
	done := false
	select {
	case <-h.c.Done():
		done = true
	default:
	}
	if st.Degraded != (st.DegradedReason != "") {
		h.t.Fatalf("after %s: degraded %v with reason %q", after, st.Degraded, st.DegradedReason)
	}
	if st.Degraded {
		// A degraded sweep cannot finish: Wait says so unless every
		// unit is already terminal.
		var want error
		if st.Pending+st.Leased > 0 {
			want = ErrDegraded
		}
		if err := h.c.Wait(context.Background(), time.Millisecond); !errors.Is(err, want) {
			h.t.Fatalf("after %s: degraded coordinator's Wait = %v, want %v", after, err, want)
		}
	}
	st.DegradedReason = "" // the reason quotes the disk's error; checked above
	if h.m != nil {
		if want := h.m.snapshot(h.clk.Now()); !reflect.DeepEqual(st, want) {
			h.t.Fatalf("after %s: snapshot diverged from the model\ncoordinator: %+v\nmodel:       %+v", after, st, want)
		}
		if done != h.m.allTerminal() {
			h.t.Fatalf("after %s: Done closed = %v, model all terminal = %v", after, done, !done)
		}
		for _, u := range h.m.units {
			res, ok := h.c.Result(u.Unit.ID)
			if ok != (u.State == UnitDone) || res != u.result {
				h.t.Fatalf("after %s: Result(%s) = %q, %v; model %q, %v", after, u.Unit.ID, res, ok, u.result, u.State == UnitDone)
			}
			// Every failure and quarantine leaves its artifact.
			var names []string
			for i := range u.Failures {
				names = append(names, fmt.Sprintf("%s.%d.crash.json", u.Unit.ID, i+1))
			}
			if u.State == UnitQuarantined {
				names = append(names, QuarantinePath("", u.Unit.ID))
			}
			for _, name := range names {
				if _, err := h.disk.Stat(filepath.Join(h.cfg.StateDir, name)); err != nil && !h.killed {
					h.t.Fatalf("after %s: %s: %v", after, name, err)
				}
			}
		}
	}
	for _, u := range st.Units {
		if u.Completions > 1 {
			h.t.Fatalf("after %s: %s shows %d completions", after, u.Unit.ID, u.Completions)
		}
		if u.Epoch < h.epochs[u.Unit.ID] {
			h.t.Fatalf("after %s: %s epoch fell from %d to %d", after, u.Unit.ID, h.epochs[u.Unit.ID], u.Epoch)
		}
		h.epochs[u.Unit.ID] = u.Epoch
	}
	h.last = st
}

func runCoordScript(t *testing.T, data []byte) {
	t.Helper()
	if len(data) >= coordHeader {
		newCoordHarness(t, data[:coordHeader]).play(data)
	}
}

func FuzzCoordinator(f *testing.F) {
	var names []string
	for name := range coordSeeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(coordSeeds[name])
	}
	f.Fuzz(runCoordScript)
}

// Script builders for the named seeds. Grants are numbered in the order
// leases return them.
func coordScript(units, quarantineAfter, expiryBudget int, ops ...coordOp) []byte {
	data := []byte{byte(units - 1), byte(quarantineAfter - 1), byte(expiryBudget - 1), 0}
	var operands []byte
	for _, op := range ops {
		data = append(data, byte(op.kind))
		operands = append(operands, []byte{op.a, op.b, op.c}[:coordArity[op.kind]]...)
	}
	for i := len(operands) - 1; i >= 0; i-- {
		data = append(data, operands[i])
	}
	return data
}

// onDisk sets a script's disk byte.
func onDisk(disk byte, data []byte) []byte {
	data[3] = disk
	return data
}

func lease(w, max int) coordOp { return coordOp{cLease, byte(w), byte(max - 1), 0} }
func heartbeat(g int) coordOp  { return coordOp{kind: cHeartbeat, c: byte(g)} }
func succeed(g int) coordOp    { return coordOp{kind: cComplete, b: 1, c: byte(g)} }
func fail(g int) coordOp       { return coordOp{kind: cComplete, c: byte(g)} }
func succeedAs(w, g int) coordOp {
	return coordOp{kind: cComplete, a: 0x80 | byte(w)<<4, b: 1, c: byte(g)}
}
func release(g int) coordOp { return coordOp{kind: cRelease, c: byte(g)} }

const ms, sec, hour = time.Millisecond, time.Second, time.Hour

func advance(d time.Duration) coordOp {
	n := d / (100 * time.Millisecond)
	return coordOp{cAdvance, byte(n), byte(n >> 8), 0}
}
func restart() coordOp      { return coordOp{kind: cRestart} }
func restartOther() coordOp { return coordOp{kind: cRestart, a: 3} }
func killDisk() coordOp     { return coordOp{kind: cDisk, a: 1} }
func reviveDisk() coordOp   { return coordOp{kind: cDisk} }

// coordSeeds are the named seed scripts, keyed by the test that replays
// each. TTL 60s, backoff base 1s, no jitter.
var coordSeeds = map[string][]byte{
	// A silent holder's unit is re-leased once per expiry, at the exact
	// TTL + backoff instants, and quarantined when the budget runs out.
	"TestLeaseExpiryReassignment": coordScript(1, 3, 3, lease(0, 1), advance(59*sec), lease(3, 1), advance(2*sec), lease(3, 1),
		advance(1500*ms), lease(1, 1), lease(3, 1), advance(61*sec), lease(3, 1), advance(2500*ms), lease(2, 1), advance(61*sec), lease(3, 1)),
	// Heartbeats extend the lease past the TTL and count.
	"TestHeartbeatExtendsLease": coordScript(1, 3, 3, lease(0, 1), advance(50*sec), heartbeat(0), advance(50*sec), heartbeat(0),
		advance(50*sec), heartbeat(0), advance(50*sec), heartbeat(0), lease(1, 1)),
	// A zombie holder is told to abandon and its completion is fenced;
	// the re-leased holder's merges.
	"TestStaleEpochFenced": coordScript(1, 3, 3, lease(0, 1), advance(62*sec), lease(1, 1), advance(2*sec), lease(1, 1),
		heartbeat(0), succeed(0), succeed(1)),
	// An expired lease nobody re-leased still merges.
	"TestSlowCompletionAfterExpiry": coordScript(1, 3, 3, lease(0, 1), advance(90*sec), succeed(0)),
	// A merged completion redelivered is re-acked, never re-merged;
	// another worker is fenced.
	"TestDuplicateCompleteIdempotent": coordScript(1, 3, 3, lease(0, 1), succeed(0), succeed(0), succeed(0), succeedAs(1, 0)),
	// The same worker failing twice counts once; the third distinct
	// worker's failure quarantines.
	"TestQuarantineAfterDistinctWorkerFailures": coordScript(1, 3, 3, lease(0, 1), fail(0), advance(hour), lease(0, 1), fail(1),
		advance(hour), lease(1, 1), fail(2), advance(hour), lease(2, 1), fail(3)),
	// A release returns the unit at once, uncharged, and fences the
	// released epoch.
	"TestReleaseReturnsUnitUncharged": coordScript(1, 3, 3, lease(0, 1), release(0), lease(1, 1), succeed(0)),
	// A resume keeps done outcomes, reverts leases to pending, and gives
	// a quarantined unit one more run with its history.
	"TestResumeAfterCoordinatorCrash": coordScript(4, 3, 3, lease(0, 1), succeed(0), advance(hour), lease(0, 1), fail(1),
		advance(hour), lease(1, 1), fail(2), advance(hour), lease(2, 1), fail(3), advance(hour), lease(3, 1),
		restart(), lease(3, 1), fail(5), lease(3, 1), succeed(6), lease(3, 1), succeed(7)),
	// A resumed coordinator grants epochs above the recorded failures',
	// so the same worker failing again is a new failure.
	"TestResumedFailureIsNotARedelivery": coordScript(1, 2, 3, lease(0, 1), fail(0), restart(), advance(hour), lease(0, 1), fail(1)),
	// State from another grid (another seed) restores nothing.
	"TestResumeRejectsMismatchedGrid": coordScript(1, 3, 3, lease(0, 1), succeed(0), restartOther(), lease(0, 1)),
	// With the disk dead, two consecutive failed transitions
	// (PersistFailLimit) degrade the coordinator.
	"TestDegradedAfterPersistFailures": coordScript(4, 3, 3, lease(0, 1), succeed(0), killDisk(), lease(0, 1), succeed(1),
		lease(0, 1), succeed(2), lease(0, 1)),
	// The count is consecutive: a transition that persists resets it.
	"TestPersistFailureCounterResets": coordScript(4, 3, 3, killDisk(), lease(0, 1), succeed(0), reviveDisk(), lease(0, 1),
		succeed(1), killDisk(), lease(0, 1), succeed(2), reviveDisk(), restart(), lease(0, 4)),
	// A crash with leases in flight: what merged before it is never
	// leased again, and the resumed sweep finishes the rest.
	"TestFleetResumeAfterCoordinatorCrash": coordScript(4, 3, 3, lease(0, 2), lease(1, 2), succeed(0), succeed(2), restart(),
		lease(1, 3), succeed(4), succeed(5), lease(0, 3)),
	// Batches mix fresh, duplicate and fenced entries under write, fsync
	// and rename faults at p = 2/16 (disk seed 0): a merge is
	// acknowledged but never made durable, and the coordinator degrades.
	"FaultyDiskBatches": onDisk(0x03, coordScript(3, 2, 2, lease(0, 3), coordOp{kind: cComplete, a: 2, b: 5}, lease(1, 2),
		advance(2*time.Minute), lease(2, 3), coordOp{kind: cComplete, a: 1, b: 2, c: 1}, restart(), lease(3, 3),
		coordOp{kind: cComplete, a: 2, b: 7, c: 4}, restart(), lease(0, 3))),
}

// replayCoordinator checks the named seed of the calling test.
func replayCoordinator(t *testing.T) {
	t.Helper()
	data, ok := coordSeeds[t.Name()]
	if !ok {
		t.Fatalf("no coordinator seed named %s", t.Name())
	}
	runCoordScript(t, data)
}

func TestLeaseExpiryReassignment(t *testing.T)               { replayCoordinator(t) }
func TestHeartbeatExtendsLease(t *testing.T)                 { replayCoordinator(t) }
func TestStaleEpochFenced(t *testing.T)                      { replayCoordinator(t) }
func TestSlowCompletionAfterExpiry(t *testing.T)             { replayCoordinator(t) }
func TestDuplicateCompleteIdempotent(t *testing.T)           { replayCoordinator(t) }
func TestQuarantineAfterDistinctWorkerFailures(t *testing.T) { replayCoordinator(t) }
func TestReleaseReturnsUnitUncharged(t *testing.T)           { replayCoordinator(t) }
func TestResumeAfterCoordinatorCrash(t *testing.T)           { replayCoordinator(t) }
func TestResumedFailureIsNotARedelivery(t *testing.T)        { replayCoordinator(t) }
func TestResumeRejectsMismatchedGrid(t *testing.T)           { replayCoordinator(t) }
func TestDegradedAfterPersistFailures(t *testing.T)          { replayCoordinator(t) }
func TestPersistFailureCounterResets(t *testing.T)           { replayCoordinator(t) }
func TestFleetResumeAfterCoordinatorCrash(t *testing.T)      { replayCoordinator(t) }
