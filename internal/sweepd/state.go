package sweepd

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/vfs"
)

// stateEntry is one unit's persisted book entry: a journal record, and
// one element of a snapshot. Rendered results are not duplicated here —
// they live in per-unit <id>.txt reports.
type stateEntry struct {
	Unit        Unit          `json:"unit"`
	State       UnitState     `json:"state"`
	Expiries    int           `json:"expiries,omitempty"`
	Failures    []UnitFailure `json:"failures,omitempty"`
	Completions int           `json:"completions,omitempty"`
	Attempts    int           `json:"attempts,omitempty"`
	DurationMS  int64         `json:"duration_ms,omitempty"`
	Quarantine  string        `json:"quarantine,omitempty"`
}

// stateFile is the snapshot document.
type stateFile struct {
	Units []stateEntry `json:"units"`
}

// entryFor renders one unit's persistable book entry. In-flight leases
// persist as their pre-lease pending state: a coordinator restart
// cannot honor epochs it never granted, so on resume those units simply
// re-run (their budgets intact).
func entryFor(r *unitRecord) stateEntry {
	st := r.state
	if st == UnitLeased || st == UnitHeartbeating {
		st = UnitPending
	}
	return stateEntry{
		Unit:        r.unit,
		State:       st,
		Expiries:    r.expiries,
		Failures:    r.failures,
		Completions: r.completions,
		Attempts:    r.attempts,
		DurationMS:  r.durationMS,
		Quarantine:  r.quarantine,
	}
}

// entriesLocked renders the whole unit table in grid order — the
// snapshot document.
func (c *Coordinator) entriesLocked() []stateEntry {
	entries := make([]stateEntry, 0, len(c.order))
	for _, id := range c.sortedIDs() {
		entries = append(entries, entryFor(c.units[id]))
	}
	return entries
}

// persistUnitLocked makes one unit's transition durable as a single
// journal record. Persistent failure is not a log line, it is a mode
// change (see persistFailureLocked).
func (c *Coordinator) persistUnitLocked(r *unitRecord) {
	c.persistUnitsLocked([]*unitRecord{r})
}

// persistUnitsLocked makes a batch of transitions durable in one
// group-commit: all records appended to the journal under a single
// fsync, so a CompleteBatch of N outcomes costs the same disk latency
// as one. A failed batch is one failed checkpoint transition, not N.
func (c *Coordinator) persistUnitsLocked(rs []*unitRecord) {
	if len(rs) == 0 || c.store == nil {
		return
	}
	if c.degraded {
		// Already refusing leases; retrying per-transition would only
		// thrash a disk we know is failing.
		return
	}
	entries := make([]stateEntry, len(rs))
	for i, r := range rs {
		entries[i] = entryFor(r)
	}
	if err := c.persistEntriesLocked(entries); err != nil {
		c.persistFailureLocked(err)
		return
	}
	c.persistFails = 0
}

// persistEntriesLocked group-commits a batch of records, retrying by
// compaction: a failed append poisons the journal file (it may hold a
// torn frame), so each retry folds the full state — batch included —
// into a fresh generation, which both persists the transitions and
// heals the torn file.
func (c *Coordinator) persistEntriesLocked(entries []stateEntry) error {
	var err error
	for attempt := 0; attempt <= persistRetries; attempt++ {
		if c.store.dirty {
			if err = c.store.compact(c.entriesLocked()); err != nil {
				continue
			}
			return nil // the compacted snapshot already includes the batch
		}
		if err = c.store.appendAll(entries); err != nil {
			continue
		}
		if c.store.shouldCompact(c.cfg.SnapshotEvery) {
			// Scheduled compaction; the records above are already
			// durable, so a failure here only defers the fold (and marks
			// the store dirty if the generation roll half-happened — the
			// next transition's retry loop finishes the job).
			if cerr := c.store.compact(c.entriesLocked()); cerr != nil {
				fmt.Fprintf(c.cfg.Log, "sweepd: warning: journal compaction failed (will retry): %v\n", cerr)
			}
		}
		return nil
	}
	return err
}

// persistFailureLocked counts a failed checkpoint transition and, past
// the budget, trips degraded mode: no more leases, Wait returns
// ErrDegraded, /v1/status says why. Crash-proof must not silently
// become best-effort.
func (c *Coordinator) persistFailureLocked(err error) {
	c.persistFails++
	fmt.Fprintf(c.cfg.Log, "sweepd: warning: state checkpoint failed (%d consecutive): %v\n", c.persistFails, err)
	if c.persistFails >= c.cfg.PersistFailLimit {
		c.degradeLocked(fmt.Sprintf("%d consecutive checkpoint failures, last: %v", c.persistFails, err))
	}
}

// degradeLocked enters degraded mode (once) for reason.
func (c *Coordinator) degradeLocked(reason string) {
	if c.degraded {
		return
	}
	c.degraded = true
	c.degradedReason = reason
	fmt.Fprintf(c.cfg.Log, "sweepd: DEGRADED: %s — refusing new leases\n", reason)
}

// applyEntriesLocked replays recovered entries over the unit table.
// Only entries whose unit (ID, experiment, seed, quick) matches the
// current grid apply — state from a different sweep configuration
// cannot mask this sweep's work. A quarantined unit resumes as pending
// with its failure history and spent budgets, so a resume gives it one
// more run and its next failure quarantines it again. Returns how many
// done outcomes were restored.
func (c *Coordinator) applyEntriesLocked(entries []stateEntry) int {
	restored := 0
	for _, e := range entries {
		r, ok := c.units[e.Unit.ID]
		if !ok || r.unit != e.Unit {
			continue
		}
		r.expiries = e.Expiries
		r.failures = append(r.failures[:0], e.Failures...)
		for _, f := range e.Failures {
			r.distinct[f.Worker] = true
			// Grant epochs above every recorded failure's: a fresh
			// failure must never match an old (worker, epoch) record and
			// be dropped as its redelivery.
			r.epoch = max(r.epoch, f.Epoch)
		}
		r.completions = e.Completions
		r.attempts = e.Attempts
		r.durationMS = e.DurationMS
		if e.State == UnitDone {
			r.state = UnitDone
			r.merged = true
			restored++
		} else {
			r.state = UnitPending
		}
	}
	return restored
}

// writeResultLocked persists a done unit's rendered report as
// <id>.txt, mirroring `ufsim -out`.
func (c *Coordinator) writeResultLocked(r *unitRecord) {
	if c.cfg.StateDir == "" || r.result == "" {
		return
	}
	path := filepath.Join(c.cfg.StateDir, string(r.unit.ID)+".txt")
	if err := vfs.WriteFileAtomic(c.cfg.FS, path, func(w io.Writer) error {
		_, err := io.WriteString(w, r.result)
		return err
	}); err != nil {
		fmt.Fprintf(c.cfg.Log, "sweepd: warning: %s report not written: %v\n", r.unit.ID, err)
	}
}

// writeCrashLocked preserves a failed completion's crash artifact per
// shard: <id>.<n>.crash.json for the unit's nth failure, verbatim as
// the worker shipped it (the runner's Artifact JSON), or a minimal
// record when the worker had none.
func (c *Coordinator) writeCrashLocked(r *unitRecord, worker string, cu CompletedUnit) {
	if c.cfg.StateDir == "" {
		return
	}
	art := cu.Artifact
	if len(art) == 0 {
		fallback := struct {
			Experiment string `json:"experiment"`
			Worker     string `json:"worker"`
			Error      string `json:"error"`
			Attempts   int    `json:"attempts"`
		}{string(r.unit.ID), worker, cu.Error, cu.Attempts}
		art, _ = json.MarshalIndent(fallback, "", "  ")
	}
	path := filepath.Join(c.cfg.StateDir, fmt.Sprintf("%s.%d.crash.json", r.unit.ID, len(r.failures)))
	if err := vfs.WriteFileAtomic(c.cfg.FS, path, func(w io.Writer) error {
		_, err := w.Write(append(art, '\n'))
		return err
	}); err != nil {
		fmt.Fprintf(c.cfg.Log, "sweepd: warning: %s crash artifact not written: %v\n", r.unit.ID, err)
	}
}

// QuarantinePath is where a unit's quarantine artifact lives under dir.
func QuarantinePath(dir string, id UnitID) string {
	return filepath.Join(dir, string(id)+".quarantine.json")
}

// QuarantineArtifact is the preserved record of a quarantined unit.
type QuarantineArtifact struct {
	Unit     Unit          `json:"unit"`
	Reason   string        `json:"reason"`
	Expiries int           `json:"expiries"`
	Failures []UnitFailure `json:"failures,omitempty"`
	// Progress is the last heartbeat note before quarantine, often the
	// sharpest clue to where the poison unit wedges.
	Progress string `json:"progress,omitempty"`
}

// writeQuarantineLocked persists the quarantine record.
func (c *Coordinator) writeQuarantineLocked(r *unitRecord) {
	if c.cfg.StateDir == "" {
		return
	}
	a := QuarantineArtifact{
		Unit:     r.unit,
		Reason:   r.quarantine,
		Expiries: r.expiries,
		Failures: r.failures,
		Progress: r.progress,
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return
	}
	if err := vfs.WriteFileAtomic(c.cfg.FS, QuarantinePath(c.cfg.StateDir, r.unit.ID), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}); err != nil {
		fmt.Fprintf(c.cfg.Log, "sweepd: warning: %s quarantine artifact not written: %v\n", r.unit.ID, err)
	}
}

// MergedManifestName is the merged manifest's filename inside StateDir.
const MergedManifestName = "manifest.json"

// mergedEntry and mergedManifest are the merged manifest: one
// human-readable verdict per unit (done, failed, or skipped), for
// operators and CI artifact uploads. Resume reads the journal, never
// this file.
type mergedEntry struct {
	Status     string `json:"status"`
	Seed       uint64 `json:"seed"`
	Attempts   int    `json:"attempts"`
	DurationMS int64  `json:"duration_ms"`
	Error      string `json:"error,omitempty"`
	Artifact   string `json:"artifact,omitempty"`
}

type mergedManifest struct {
	Seed        uint64                 `json:"seed"`
	Quick       bool                   `json:"quick"`
	Experiments map[string]mergedEntry `json:"experiments"`
}

// writeManifestLocked writes the merged manifest: every unit's
// outcome. Called when the sweep completes and again at drain, always
// atomically.
func (c *Coordinator) writeManifestLocked() error {
	if c.cfg.StateDir == "" || len(c.order) == 0 {
		return nil
	}
	first := c.units[c.order[0]].unit
	doc := mergedManifest{Seed: first.Seed, Quick: first.Quick, Experiments: map[string]mergedEntry{}}
	for _, id := range c.sortedIDs() {
		r := c.units[id]
		e := mergedEntry{Seed: r.unit.Seed, Attempts: r.attempts, DurationMS: r.durationMS}
		switch r.state {
		case UnitDone:
			e.Status = "done"
		case UnitQuarantined:
			// A quarantined unit resumes as pending (applyEntriesLocked).
			e.Status = "failed"
			e.Error = "quarantined: " + r.quarantine
			e.Artifact = QuarantinePath(c.cfg.StateDir, id)
			if len(r.failures) > 0 {
				e.Attempts = len(r.failures)
			}
		default:
			e.Status = "skipped"
			e.Error = "sweep drained before the unit ran"
		}
		doc.Experiments[string(id)] = e
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(c.cfg.FS, filepath.Join(c.cfg.StateDir, MergedManifestName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// WriteManifest forces the merged manifest out now (used at drain, when
// the sweep may not be complete).
func (c *Coordinator) WriteManifest() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeManifestLocked()
}
