// Package vfs is the narrow filesystem seam under every durable write
// the runner and the sweep coordinator make. Production code runs on OS
// (thin wrappers over package os); tests and chaos runs swap in the
// deterministic disk-fault injector from internal/faults — failed and
// short writes, fsync and rename errors, and crash-kill at any write
// boundary — without touching the code under test. The interface is
// deliberately small: exactly the operations a write-ahead journal and
// atomic snapshot swaps need, nothing a simulation would never use.
//
// Durability contract: a write is durable only after File.Sync returns,
// and a creation or rename is durable only after SyncDir on the parent
// directory returns. WriteFileAtomic sequences all of it — temp write,
// file fsync, rename, directory fsync — so callers get
// "readers never see a torn file, and a completed call survives power
// loss" in one step.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the writable handle an FS hands out. Sync must not return
// until the file's contents are durable (the crash models in
// internal/faults hold written-but-unsynced bytes hostage).
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Name returns the path the file was opened under.
	Name() string
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Chmod sets the file mode.
	Chmod(mode fs.FileMode) error
}

// FS is the filesystem surface durable state goes through.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm fs.FileMode) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// CreateTemp creates a new temp file in dir with a name built from
	// pattern, as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadFile returns name's full contents.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath's file. The swap
	// is durable only after SyncDir on the parent.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Stat describes name.
	Stat(name string) (fs.FileInfo, error)
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// SyncDir makes dir's entries (creations, renames, removals since
	// the last SyncDir) durable.
	SyncDir(dir string) error
}

// OS is the production FS: package os plus directory fsync.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Append implements FS.
func (OS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Stat implements FS.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// SyncDir implements FS: open the directory and fsync it, which is how
// POSIX makes renames and creations durable. Filesystems that cannot
// fsync a directory (some network and overlay mounts return EINVAL or
// ENOTSUP) are tolerated — there is nothing more userspace can do there.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !ignorableSyncErr(err) {
		return err
	}
	return nil
}

// ignorableSyncErr reports whether a directory-fsync failure means
// "unsupported here" rather than "your data is gone".
func ignorableSyncErr(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.EOPNOTSUPP)
}

// WriteFileAtomic writes a file via a temp file in the same directory
// and a rename, so readers never observe a truncated file and a failed
// write leaves no partial artifact behind. The temp file is fsynced
// before the rename — without it, a crash in the window between rename
// and writeback could leave the final name holding torn content — and
// the parent directory is fsynced after it, because the rename itself
// is just a directory entry until the directory's metadata reaches
// disk: skip that and a power failure can quietly resurrect the old
// file under the new name.
func WriteFileAtomic(fsys FS, path string, write func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := fsys.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	// CreateTemp opens 0600; these are reports and manifests, not
	// secrets, so restore the conventional world-readable mode.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // disarm the cleanup; rename owns the file now
	if err := fsys.Rename(name, path); err != nil {
		fsys.Remove(name)
		return err
	}
	return fsys.SyncDir(dir)
}
