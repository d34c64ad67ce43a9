package sweepd

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

func testEntry(id string, st UnitState) stateEntry {
	return stateEntry{
		Unit:  Unit{ID: UnitID(id), Experiment: id, Seed: 7, Quick: true},
		State: st,
	}
}

// append journals one record, the way a single-unit transition does.
func (js *journalStore) append(e stateEntry) error { return js.appendAll([]stateEntry{e}) }

func entryStates(entries []stateEntry) map[string]UnitState {
	out := map[string]UnitState{}
	for _, e := range entries {
		out[string(e.Unit.ID)] = e.State
	}
	return out
}

// readManifestGen returns the active generation recorded on disk.
func readManifestGen(t *testing.T, dir string) uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, JournalManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man journalManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	return man.Generation
}

// TestJournalAppendRecover: appended transitions survive a close/reopen
// cycle, last record per unit winning.
func TestJournalAppendRecover(t *testing.T) {
	dir := t.TempDir()
	js, entries, salvage, err := openJournal(vfs.OS{}, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || salvage != nil {
		t.Fatalf("fresh open: entries=%d salvage=%v", len(entries), salvage)
	}
	for _, e := range []stateEntry{
		testEntry("a", UnitPending),
		testEntry("b", UnitPending),
		testEntry("a", UnitDone),
		testEntry("b", UnitQuarantined),
		testEntry("c", UnitDone),
	} {
		if err := js.append(e); err != nil {
			t.Fatal(err)
		}
	}
	js.Close()

	_, entries, salvage, err = openJournal(vfs.OS{}, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if salvage != nil {
		t.Fatalf("clean recovery produced salvage: %+v", salvage)
	}
	got := entryStates(entries)
	want := map[string]UnitState{"a": UnitDone, "b": UnitQuarantined, "c": UnitDone}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for id, st := range want {
		if got[id] != st {
			t.Fatalf("unit %s recovered as %s, want %s", id, got[id], st)
		}
	}
}

// TestJournalTornTailTruncated: a partial record at the end (crash
// mid-append) is truncated — committed records replay, recovery never
// fails, and the salvage report says what was dropped.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	js, _, _, err := openJournal(vfs.OS{}, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.append(testEntry("a", UnitDone)); err != nil {
		t.Fatal(err)
	}
	if err := js.append(testEntry("b", UnitDone)); err != nil {
		t.Fatal(err)
	}
	gen := js.gen
	js.Close()

	// Simulate the crash: a half-written frame at the tail.
	walPath := filepath.Join(dir, journalFileName(gen))
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := encodeFrame([]byte(`{"state":"done"}`))
	if _, err := f.Write(whole[:len(whole)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, recovered, salv, err := openJournalOS(dir)
	if err != nil {
		t.Fatalf("torn tail must never be fatal: %v", err)
	}
	got := entryStates(recovered)
	if got["a"] != UnitDone || got["b"] != UnitDone || len(got) != 2 {
		t.Fatalf("recovered %v, want a+b done", got)
	}
	if salv == nil || salv.Kind != "torn-tail" {
		t.Fatalf("salvage = %+v, want torn-tail", salv)
	}
	if salv.RecordsReplayed != 2 || salv.DroppedBytes != int64(len(whole)-5) {
		t.Fatalf("salvage = %+v", salv)
	}
	rep, err := ReadSalvageReport(nil, dir)
	if err != nil || rep.Kind != "torn-tail" {
		t.Fatalf("salvage report on disk: %+v, %v", rep, err)
	}
}

// openJournal loads dir's journal and makes its first generation
// durable, as a coordinator's bootstrap does.
func openJournal(fsys vfs.FS, dir string, resume bool, log io.Writer) (*journalStore, []stateEntry, *SalvageReport, error) {
	js, entries, salvage, err := loadJournal(fsys, dir, resume, log)
	if err == nil {
		err = js.compact(entries)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return js, entries, salvage, nil
}

// openJournalOS is shorthand used by tests that reopen repeatedly.
func openJournalOS(dir string) (*journalStore, []stateEntry, *SalvageReport, error) {
	return openJournal(vfs.OS{}, dir, true, nil)
}

// TestJournalMidStreamCorruption: a flipped bit in a record that has
// intact data after it abandons the journal — recovery falls back to
// the snapshot alone and reports it, rather than replaying a log whose
// integrity is broken.
func TestJournalMidStreamCorruption(t *testing.T) {
	dir := t.TempDir()
	js, _, _, err := openJournal(vfs.OS{}, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot state: nothing. Journal: three records.
	for _, id := range []string{"a", "b", "c"} {
		if err := js.append(testEntry(id, UnitDone)); err != nil {
			t.Fatal(err)
		}
	}
	gen := js.gen
	js.Close()

	walPath := filepath.Join(dir, journalFileName(gen))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 1 // inside the first record's payload
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recovered, salv, err := openJournalOS(dir)
	if err != nil {
		t.Fatalf("mid-stream corruption must fall back, not fail: %v", err)
	}
	if len(recovered) != 0 {
		t.Fatalf("recovered %v, want snapshot-only (empty)", entryStates(recovered))
	}
	if salv == nil || salv.Kind != "mid-stream-corruption" {
		t.Fatalf("salvage = %+v", salv)
	}
	if salv.RecordsReplayed != 0 || salv.DroppedBytes != int64(len(data)) {
		t.Fatalf("salvage = %+v", salv)
	}
}

// TestJournalCompaction: the store rolls generations — snapshot absorbs
// the tail, the manifest advances, and the previous generation's files
// are retired.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	js, _, _, err := openJournal(vfs.OS{}, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := js.gen
	if err := js.append(testEntry("a", UnitDone)); err != nil {
		t.Fatal(err)
	}
	if !js.shouldCompact(1) {
		t.Fatal("one appended record must trip shouldCompact(1)")
	}
	if err := js.compact([]stateEntry{testEntry("a", UnitDone)}); err != nil {
		t.Fatal(err)
	}
	if js.gen != gen0+1 {
		t.Fatalf("generation = %d, want %d", js.gen, gen0+1)
	}
	if got := readManifestGen(t, dir); got != js.gen {
		t.Fatalf("manifest generation = %d, want %d", got, js.gen)
	}
	for _, stale := range []string{snapshotFileName(gen0), journalFileName(gen0)} {
		if _, err := os.Stat(filepath.Join(dir, stale)); err == nil {
			t.Fatalf("stale generation file %s not retired", stale)
		}
	}
	// Post-compaction appends land in the new journal and recover.
	if err := js.append(testEntry("b", UnitDone)); err != nil {
		t.Fatal(err)
	}
	js.Close()
	_, recovered, _, err := openJournalOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := entryStates(recovered)
	if got["a"] != UnitDone || got["b"] != UnitDone {
		t.Fatalf("recovered %v", got)
	}
}

// TestJournalResumeWithoutManifestIsFresh: resuming a dir that holds no
// journal manifest recovers nothing and opens a fresh sweep.
func TestJournalResumeWithoutManifestIsFresh(t *testing.T) {
	dir := t.TempDir()
	js, recovered, salv, err := openJournalOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	if len(recovered) != 0 || salv != nil {
		t.Fatalf("empty dir recovered %d entries (salvage %+v)", len(recovered), salv)
	}
}

// TestJournalFreshOpenIgnoresOldState: without resume, existing journal
// state is superseded, not replayed — and the generation number still
// advances past the old files so they can never collide.
func TestJournalFreshOpenIgnoresOldState(t *testing.T) {
	dir := t.TempDir()
	js, _, _, err := openJournal(vfs.OS{}, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.append(testEntry("a", UnitDone)); err != nil {
		t.Fatal(err)
	}
	oldGen := js.gen
	js.Close()

	js2, recovered, _, err := openJournal(vfs.OS{}, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer js2.Close()
	if len(recovered) != 0 {
		t.Fatalf("fresh open replayed %v", entryStates(recovered))
	}
	if js2.gen <= oldGen {
		t.Fatalf("fresh generation %d does not advance past %d", js2.gen, oldGen)
	}
}

// TestScanJournalEmptyAndBogusLength: edge frames classify as torn, not
// corrupt, and never panic.
func TestScanJournalEmptyAndBogusLength(t *testing.T) {
	if s := scanJournal(nil); s.records != 0 || s.tornAt != -1 || s.corruptAt != -1 {
		t.Fatalf("empty scan = %+v", s)
	}
	if s := scanJournal([]byte{1, 2, 3}); s.tornAt != 0 {
		t.Fatalf("short header scan = %+v", s)
	}
	// A frame whose length field claims more than the file holds.
	frame := encodeFrame([]byte(`{}`))
	frame[0] = 0xFF
	frame[1] = 0xFF
	if s := scanJournal(frame); s.tornAt != 0 || s.corruptAt != -1 {
		t.Fatalf("bogus length scan = %+v", s)
	}
}
