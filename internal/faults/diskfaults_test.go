package faults

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

func mustWrite(t *testing.T, fsys vfs.FS, name, content string, sync bool) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, content); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskFSCrashDropsUnsyncedEntries: a created file whose directory
// entry was never fsynced vanishes on crash, even if its content was;
// after SyncDir it survives.
func TestDiskFSCrashDropsUnsyncedEntries(t *testing.T) {
	d := NewDiskFS(1)
	if err := d.MkdirAll("state", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, d, "state/volatile.json", "content-synced-entry-not", true)
	mustWrite(t, d, "state/durable.json", "kept", true)
	if err := d.SyncDir("state"); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, d, "state/after.json", "created after dir sync", true)

	d.Crash()
	if _, err := d.ReadFile("state/after.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("entry created after SyncDir survived crash: err=%v", err)
	}
	data, err := d.ReadFile("state/durable.json")
	if err != nil || string(data) != "kept" {
		t.Fatalf("durable file = %q, %v", data, err)
	}
}

// TestDiskFSCrashTornTail: unsynced appended bytes survive a crash only
// as a prefix — the torn-tail shape journal recovery must truncate.
func TestDiskFSCrashTornTail(t *testing.T) {
	d := NewDiskFS(7)
	f, err := d.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, "synced-prefix|"); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, "volatile-tail"); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	data, err := d.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	want := "synced-prefix|volatile-tail"
	if !bytes.HasPrefix([]byte(want), data) || len(data) < len("synced-prefix|") {
		t.Fatalf("post-crash content %q is not a torn prefix of %q", data, want)
	}
}

// TestDiskFSRenameRollback: a rename is just a directory entry until
// SyncDir — crash before it and the target rolls back to its old
// content. This is precisely why WriteFileAtomic fsyncs the parent.
func TestDiskFSRenameRollback(t *testing.T) {
	for _, dirSync := range []bool{false, true} {
		d := NewDiskFS(3)
		mustWrite(t, d, "state.json", "v1", true)
		if err := d.SyncDir("."); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, d, "state.json.tmp", "v2", true)
		if err := d.Rename("state.json.tmp", "state.json"); err != nil {
			t.Fatal(err)
		}
		if dirSync {
			if err := d.SyncDir("."); err != nil {
				t.Fatal(err)
			}
		}
		d.Crash()
		data, err := d.ReadFile("state.json")
		if err != nil {
			t.Fatal(err)
		}
		want := "v1"
		if dirSync {
			want = "v2"
		}
		if string(data) != want {
			t.Fatalf("dirSync=%v: post-crash content = %q, want %q", dirSync, data, want)
		}
	}
}

// TestDiskFSRemoveResurrects: an unsynced removal comes back after a
// crash.
func TestDiskFSRemoveResurrects(t *testing.T) {
	d := NewDiskFS(4)
	mustWrite(t, d, "ghost", "boo", true)
	if err := d.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadFile("ghost"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed file still readable: %v", err)
	}
	d.Crash()
	if data, err := d.ReadFile("ghost"); err != nil || string(data) != "boo" {
		t.Fatalf("unsynced removal not rolled back: %q, %v", data, err)
	}
}

// TestDiskFSCrashAfter: the armed boundary kills that operation and
// every later one, without applying them.
func TestDiskFSCrashAfter(t *testing.T) {
	workload := func(d *DiskFS) error {
		f, err := d.Create("a")
		if err != nil {
			return err
		}
		if _, err := io.WriteString(f, "aa"); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := d.SyncDir("."); err != nil {
			return err
		}
		return d.Rename("a", "b")
	}
	clean := NewDiskFS(9)
	if err := workload(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	if total != 5 { // create, write, sync, syncdir, rename
		t.Fatalf("clean workload ops = %d, want 5", total)
	}
	for k := 0; k < total; k++ {
		d := NewDiskFS(9)
		d.CrashAfter(k)
		if err := workload(d); !errors.Is(err, ErrCrashed) {
			t.Fatalf("CrashAfter(%d): workload err = %v, want ErrCrashed", k, err)
		}
		if !d.Crashed() {
			t.Fatalf("CrashAfter(%d): not marked crashed", k)
		}
		if _, err := d.ReadFile("a"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("CrashAfter(%d): reads after death err = %v", k, err)
		}
		d.Crash()
		// After reboot the filesystem must be usable again.
		if err := workload(d); err != nil {
			t.Fatalf("CrashAfter(%d): post-reboot workload: %v", k, err)
		}
	}
}

// TestWriteFileAtomicNeverTornUnderCrash: crash vfs.WriteFileAtomic at
// every mutating boundary over the crash-model filesystem — the target
// must always hold exactly the old or the new content, never a torn
// mix, and once the call returns success even a crash must keep the new
// content (that last guarantee is the parent-directory fsync).
func TestWriteFileAtomicNeverTornUnderCrash(t *testing.T) {
	write := func(d *DiskFS) error {
		return vfs.WriteFileAtomic(d, "state.json", func(w io.Writer) error {
			_, err := io.WriteString(w, "NEW")
			return err
		})
	}
	setup := func(seed uint64) *DiskFS {
		d := NewDiskFS(seed)
		mustWrite(t, d, "state.json", "OLD", true)
		if err := d.SyncDir("."); err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean := setup(11)
	base := clean.Ops()
	if err := write(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops() - base

	sawOld, sawNew := false, false
	for k := 0; k < total; k++ {
		d := setup(uint64(100 + k))
		d.CrashAfter(base + k)
		err := write(d)
		d.Crash()
		data, rerr := d.ReadFile("state.json")
		if rerr != nil {
			t.Fatalf("boundary %d: target missing after crash: %v", k, rerr)
		}
		switch string(data) {
		case "OLD":
			sawOld = true
			if err == nil {
				t.Fatalf("boundary %d: WriteFileAtomic reported success but crash rolled back to OLD", k)
			}
		case "NEW":
			sawNew = true
		default:
			t.Fatalf("boundary %d: torn content %q", k, data)
		}
	}
	if !sawOld {
		t.Fatal("no boundary preserved the old content (crash model too lenient)")
	}
	_ = sawNew // crashing *at* the final dir sync may legitimately still yield OLD
}

// diskChaosWorkload is the snapshot-plus-journal write pattern of the
// sweep service: atomic snapshot swaps (random temp names on a real
// disk) and fsynced appends, with the directory spelled both "dir/" (as
// WriteFileAtomic passes it) and "dir". Faults are tolerated; only the
// verdicts matter.
func diskChaosWorkload(fsys vfs.FS, dir string) {
	fsys.MkdirAll(dir, 0o755)
	for i := 0; i < 200; i++ {
		vfs.WriteFileAtomic(fsys, filepath.Join(dir, "snapshot.json"), func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "snapshot %d\n", i)
			return err
		})
		if f, err := fsys.Append(filepath.Join(dir, "journal.wal")); err == nil {
			fmt.Fprintf(f, "record %d\n", i)
			f.Sync()
			f.Close()
		}
		fsys.SyncDir(dir)
	}
}

// TestDiskPlanDeterminism: one seed and one op sequence yield one set of
// verdicts — run twice in memory, and once over the real disk, where
// CreateTemp names are random and must not change the outcome.
func TestDiskPlanDeterminism(t *testing.T) {
	cfg := DefaultDiskConfig(1.0)
	dir := t.TempDir()
	run := func(inner vfs.FS) DiskStats {
		d := NewFaultyDisk(inner, cfg, 42)
		diskChaosWorkload(d, dir)
		return d.Stats()
	}
	mem1, mem2, onDisk := run(nil), run(nil), run(vfs.OS{})
	if mem1 != mem2 {
		t.Fatalf("same seed diverged in memory: %+v vs %+v", mem1, mem2)
	}
	if onDisk != mem1 {
		t.Fatalf("real disk diverged from memory under one seed: %+v vs %+v", onDisk, mem1)
	}
	if mem1.WriteErrs+mem1.ShortWrites+mem1.SyncErrs+mem1.RenameErrs == 0 {
		t.Fatalf("full-intensity injector injected nothing: %+v", mem1)
	}
}

// TestFaultyFSShortWritePersistsPrefix: a short-write verdict leaves
// the persisted prefix behind in the store.
func TestFaultyFSShortWritePersistsPrefix(t *testing.T) {
	d := NewFaultyDisk(nil, DiskConfig{ShortWriteProb: 1.0}, 6)
	f, err := d.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 64)
	n, werr := f.Write(payload)
	if !errors.Is(werr, ErrDiskFault) {
		t.Fatalf("write err = %v, want ErrDiskFault", werr)
	}
	if n < 0 || n >= len(payload) {
		t.Fatalf("short write n = %d", n)
	}
	data, err := d.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != n {
		t.Fatalf("store holds %d bytes, verdict said %d", len(data), n)
	}
}
