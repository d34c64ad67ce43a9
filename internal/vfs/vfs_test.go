package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recordingFS wraps OS and logs each durability-relevant operation, so
// tests can assert the exact write→sync→close→rename→dir-sync order
// WriteFileAtomic promises.
type recordingFS struct {
	OS
	ops []string
}

func (r *recordingFS) log(op string) { r.ops = append(r.ops, op) }

func (r *recordingFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := r.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	r.log("create-temp")
	return &recordingFile{File: f, fs: r}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.log("rename")
	return r.OS.Rename(oldpath, newpath)
}

func (r *recordingFS) SyncDir(dir string) error {
	r.log("sync-dir")
	return r.OS.SyncDir(dir)
}

type recordingFile struct {
	File
	fs *recordingFS
}

func (f *recordingFile) Write(p []byte) (int, error) {
	f.fs.log("write")
	return f.File.Write(p)
}

func (f *recordingFile) Sync() error {
	f.fs.log("sync")
	return f.File.Sync()
}

func (f *recordingFile) Close() error {
	f.fs.log("close")
	return f.File.Close()
}

// TestWriteFileAtomicDurabilityOrder: the write path must be
// create-temp, write, file fsync, close, rename, parent-dir fsync — in
// that exact order. The trailing dir fsync is what makes the *rename*
// durable; without it a power failure after a "successful" call can
// roll the file back to its previous contents.
func TestWriteFileAtomicDurabilityOrder(t *testing.T) {
	rec := &recordingFS{}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteFileAtomic(rec, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "durable")
		return err
	}); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	want := []string{"create-temp", "write", "sync", "close", "rename", "sync-dir"}
	if got := strings.Join(rec.ops, ","); got != strings.Join(want, ",") {
		t.Fatalf("operation order = %v, want %v", rec.ops, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable" {
		t.Fatalf("content = %q", data)
	}
}

// TestWriteFileAtomicRelativePath: a bare filename (no directory
// component) must sync the current directory, not an empty path.
func TestWriteFileAtomicRelativePath(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := WriteFileAtomic(OS{}, "bare.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}); err != nil {
		t.Fatalf("WriteFileAtomic on bare name: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bare.txt")); err != nil {
		t.Fatal(err)
	}
}

// TestOSRoundTrip: the OS implementation's append, read, stat, and
// dir-listing surfaces behave like package os.
func TestOSRoundTrip(t *testing.T) {
	fsys := OS{}
	dir := t.TempDir()
	name := filepath.Join(dir, "log.wal")

	for _, chunk := range []string{"one", "two"} {
		f, err := fsys.Append(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(f, chunk); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "onetwo" {
		t.Fatalf("appended content = %q", data)
	}
	info, err := fsys.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 6 {
		t.Fatalf("size = %d", info.Size())
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "log.wal" {
		t.Fatalf("dir entries = %v", names(entries))
	}
	if err := fsys.Remove(name); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(name); err == nil {
		t.Fatal("removed file still stats")
	}
}

func names(entries []fs.DirEntry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestWriteFileAtomicCrashMidWrite: a writer that dies partway through
// (simulating a crash or error mid-write) must leave the previous file
// contents untouched and no temp litter behind — the torn write is
// confined to a temp name that never becomes visible.
func TestWriteFileAtomicCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := WriteFileAtomic(OS{}, path, func(w io.Writer) error {
		_, err := io.WriteString(w, `{"generation": 1}`)
		return err
	}); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	boom := errors.New("crash mid-write")
	err := WriteFileAtomic(OS{}, path, func(w io.Writer) error {
		// Half the new content lands, then the process "dies".
		if _, err := io.WriteString(w, `{"generation": 2, "experiments": {`); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("mid-write failure not surfaced: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading after failed write: %v", err)
	}
	if string(data) != `{"generation": 1}` {
		t.Fatalf("previous contents torn by failed write: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}
}

// TestWriteFileAtomicLeavesNoPartials: a render that fails before any
// file exists leaves the directory empty; the retry then lands whole.
func TestWriteFileAtomicLeavesNoPartials(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	boom := errors.New("render exploded")
	err := WriteFileAtomic(OS{}, path, func(w io.Writer) error {
		w.Write([]byte("half a rep"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic error = %v, want the render error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed write left %d files behind (%v)", len(entries), entries)
	}
	if err := WriteFileAtomic(OS{}, path, func(w io.Writer) error { _, err := w.Write([]byte("whole\n")); return err }); err != nil {
		t.Fatalf("successful write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "whole\n" {
		t.Fatalf("read back %q, %v", data, err)
	}
}

// TestWriteFileAtomicReplaces: the happy path replaces the file in one
// step with world-readable mode.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	for i, content := range []string{"first", "second"} {
		if err := WriteFileAtomic(OS{}, path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != content {
			t.Fatalf("write %d read back %q", i, data)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", info.Mode().Perm())
	}
}
