package sweepd

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// newFsckDir builds a journaled state dir with units a (done) and
// b (quarantined) plus their artifacts.
func newFsckDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	js, _, _, err := openJournal(vfs.OS{}, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []stateEntry{testEntry("a", UnitDone), testEntry("b", UnitQuarantined)} {
		if err := js.append(e); err != nil {
			t.Fatal(err)
		}
	}
	js.Close()
	for name, content := range map[string]string{
		"a.txt":             "result text",
		"b.quarantine.json": `{"reason": "poison"}`,
		"b.1.crash.json":    `{"error": "boom"}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func findReport(t *testing.T, list []string, substr string) {
	t.Helper()
	for _, s := range list {
		if strings.Contains(s, substr) {
			return
		}
	}
	t.Fatalf("no finding mentioning %q in %v", substr, list)
}

// TestFsckClean: a healthy journaled dir verifies with no findings.
func TestFsckClean(t *testing.T) {
	dir := newFsckDir(t)
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(rep.Warnings) != 0 {
		t.Fatalf("clean dir reported %+v", rep)
	}
	if !rep.Journaled || rep.Units != 2 || rep.Records != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestFsckTornTailWarns: a torn journal tail is a warning (recovery
// absorbs it), not corruption.
func TestFsckTornTailWarns(t *testing.T) {
	dir := newFsckDir(t)
	gen := readManifestGen(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, journalFileName(gen)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0})
	f.Close()

	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("torn tail reported as corruption: %+v", rep.Corruptions)
	}
	findReport(t, rep.Warnings, "torn tail")
}

// TestFsckMidStreamCorruption: a bad checksum mid-journal is
// corruption and fails verification.
func TestFsckMidStreamCorruption(t *testing.T) {
	dir := newFsckDir(t)
	gen := readManifestGen(t, dir)
	walPath := filepath.Join(dir, journalFileName(gen))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[frameOverhead+1] ^= 1
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("mid-stream corruption passed fsck")
	}
	findReport(t, rep.Corruptions, "mid-stream")
}

// TestFsckCorruptSnapshotAndManifest: damaged snapshot or generation
// manifest fails verification.
func TestFsckCorruptSnapshotAndManifest(t *testing.T) {
	dir := newFsckDir(t)
	gen := readManifestGen(t, dir)
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName(gen)), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	findReport(t, rep.Corruptions, "snapshot")

	if err := os.WriteFile(filepath.Join(dir, JournalManifestName), []byte("???"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	findReport(t, rep.Corruptions, "journal manifest")
}

// TestFsckOrphansAndTornArtifacts: artifacts for unknown units warn;
// artifacts that do not parse are corruption.
func TestFsckOrphansAndTornArtifacts(t *testing.T) {
	dir := newFsckDir(t)
	if err := os.WriteFile(filepath.Join(dir, "ghost.quarantine.json"), []byte(`{"reason":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.2.crash.json"), []byte(`{"error": "tor`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zombie.txt"), []byte("who"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	findReport(t, rep.Warnings, "orphaned quarantine artifact ghost.quarantine.json")
	findReport(t, rep.Warnings, "orphaned result zombie.txt")
	findReport(t, rep.Corruptions, "b.2.crash.json")
}

// TestFsckMissingDir: an unreadable dir is the error return.
func TestFsckMissingDir(t *testing.T) {
	if _, err := Fsck(nil, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir did not error")
	}
}
