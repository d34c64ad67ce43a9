package faults

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Disk faults: NetPlan makes the network an adversary; DiskFS makes the
// disk one. It is the one disk-fault injector over the vfs.FS seam, and
// it decides every disk fault under one lock:
//
//   - The crash kill. CrashAfter(k) arms a kill at the k-th mutating
//     operation (creates, writes, syncs, renames, removes, dir syncs),
//     so a test can enumerate every write boundary in a workload and
//     crash at each one; Crash() then reboots the store.
//   - Transient faults from a DiskConfig: failed and short writes,
//     fsync errors, rename errors. A verdict is a pure function of
//     (seed, op kind, target, per-(kind, target) op index). The target
//     is the cleaned path minus any WriteFileAtomic ".tmp-*" suffix, so
//     neither random temp names nor "dir/" vs "dir" spellings change a
//     chaos run's fault pattern.
//
// DiskFS stores into a fresh in-memory store (memFS) or, in
// pass-through mode, into any other vfs.FS such as vfs.OS for
// `ufsim serve -chaos-disk`. Over memFS an injected fsync error really
// does leave the bytes volatile, so a later crash tests both at once.

// ErrCrashed is returned by every DiskFS operation at and after the
// armed crash boundary: the process is "dead" until Crash() reboots the
// filesystem into its durable state.
var ErrCrashed = errors.New("faults: filesystem crashed")

// ErrDiskFault marks a transient injected I/O error.
var ErrDiskFault = errors.New("faults: injected disk fault")

// DiskConfig describes one transient disk-fault mix. The zero value
// injects nothing; DefaultDiskConfig scales a representative mix by one
// intensity knob.
type DiskConfig struct {
	// WriteErrProb fails a write outright (nothing persisted);
	// ShortWriteProb persists a prefix of the buffer and then fails —
	// the torn-record shape journal recovery must absorb.
	WriteErrProb   float64
	ShortWriteProb float64
	// SyncErrProb fails a file or directory fsync.
	SyncErrProb float64
	// RenameErrProb fails an atomic swap.
	RenameErrProb float64
}

// DefaultDiskConfig scales a representative transient-fault mix by
// intensity in [0, 1].
func DefaultDiskConfig(intensity float64) DiskConfig {
	intensity = min(max(intensity, 0), 1)
	return DiskConfig{
		WriteErrProb:   0.03 * intensity,
		ShortWriteProb: 0.03 * intensity,
		SyncErrProb:    0.05 * intensity,
		RenameErrProb:  0.02 * intensity,
	}
}

// DiskStats counts the writes that consulted a non-zero DiskConfig and
// the faults it injected. Every field is a function of the verdicts
// alone, so one seed and one op sequence give one DiskStats.
type DiskStats struct {
	Writes, WriteErrs, ShortWrites, SyncErrs, RenameErrs int
}

// opKind classifies an operation for the injector. opPlain ops (reads,
// mkdir, handle housekeeping) only fail once dead; the rest are crash
// boundaries, and the last three draw transient verdicts.
type opKind uint64

const (
	opPlain opKind = iota
	opMutate
	opWrite
	opSync // file and directory fsyncs alike
	opRename
)

// opKey is one verdict stream: an op kind on one target.
type opKey struct {
	kind   opKind
	target string
}

// DiskFS is the disk-fault injector. Safe for concurrent use.
type DiskFS struct {
	inner  vfs.FS
	mem    *memFS // the in-memory store; nil in pass-through mode
	cfg    DiskConfig
	seed   uint64
	faulty bool // cfg is non-zero

	mu      sync.Mutex
	ops     int
	crashAt int // mutating-op index to die at; -1 disarmed
	crashed bool
	seen    map[opKey]uint64 // per-(kind, target) op index
	rng     *sim.Rand        // reseeded per verdict
	stats   DiskStats
}

var _ vfs.FS = (*DiskFS)(nil)

// NewDiskFS builds a fault-free injector over a fresh in-memory store:
// only an armed CrashAfter kills. The seed drives the torn-tail draws
// at Crash time.
func NewDiskFS(seed uint64) *DiskFS { return NewFaultyDisk(nil, DiskConfig{}, seed) }

// NewFaultyDisk builds an injector applying cfg, deterministic in seed,
// over inner — or, when inner is nil, over a fresh in-memory store
// whose torn tails the same seed drives.
func NewFaultyDisk(inner vfs.FS, cfg DiskConfig, seed uint64) *DiskFS {
	d := &DiskFS{inner: inner, cfg: cfg, seed: seed, faulty: cfg != DiskConfig{}, crashAt: -1}
	if inner == nil {
		d.mem = newMemFS(seed)
		d.inner = d.mem
	}
	if d.faulty {
		d.seen = map[opKey]uint64{}
		d.rng = sim.NewRand(seed)
	}
	return d
}

// CrashAfter arms a kill: the first k mutating operations succeed and
// the next one — and everything after it — returns ErrCrashed without
// being applied. k=0 kills the very first one. Call Crash to reboot.
func (d *DiskFS) CrashAfter(k int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAt = k
	d.crashed = false
}

// Ops returns how many mutating operations have passed the crash gate:
// the number of distinct crash boundaries a workload replay can arm.
func (d *DiskFS) Ops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Crashed reports whether the armed boundary has been hit.
func (d *DiskFS) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Crash reboots the in-memory store into its durable state (a
// pass-through store has nothing volatile to drop) and clears the crash
// arm so recovery code can run against the same filesystem.
func (d *DiskFS) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mem != nil {
		d.mem.crash()
	}
	d.crashed = false
	d.crashAt = -1
}

// Stats snapshots the transient-fault counters.
func (d *DiskFS) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// admitLocked decides one operation's fate: dead after the kill, then
// the crash gate, then the transient verdict. For a write of n bytes it
// returns how many to persist before failing with err.
func (d *DiskFS) admitLocked(kind opKind, name string, n int) (keep int, err error) {
	switch {
	case d.crashed:
		return 0, ErrCrashed
	case kind == opPlain:
		return n, nil
	case d.crashAt >= 0 && d.ops >= d.crashAt:
		d.crashed = true
		return 0, ErrCrashed
	}
	d.ops++
	if !d.faulty || kind == opMutate {
		return n, nil
	}
	target := filepath.Clean(name)
	if i := strings.LastIndex(target, ".tmp-"); i >= 0 && !strings.ContainsRune(target[i:], filepath.Separator) {
		target = target[:i]
	}
	key := opKey{kind, target}
	idx := d.seen[key]
	d.seen[key] = idx + 1
	r := d.rng
	r.Reseed(d.seed ^ sim.HashString(target) ^ (uint64(kind)<<32|idx)*0xbf58476d1ce4e5b9)

	switch kind {
	case opWrite:
		d.stats.Writes++
		switch {
		case r.Bool(d.cfg.WriteErrProb):
			d.stats.WriteErrs++
			return 0, fmt.Errorf("%w: write %s", ErrDiskFault, target)
		case n > 1 && r.Bool(d.cfg.ShortWriteProb):
			d.stats.ShortWrites++
			keep = r.IntN(n) // persist [0, n) bytes, then fail
			return keep, fmt.Errorf("%w: short write %s (%d of %d bytes)", ErrDiskFault, target, keep, n)
		}
	case opSync:
		if r.Bool(d.cfg.SyncErrProb) {
			d.stats.SyncErrs++
			return 0, fmt.Errorf("%w: fsync %s", ErrDiskFault, target)
		}
	case opRename:
		if r.Bool(d.cfg.RenameErrProb) {
			d.stats.RenameErrs++
			return 0, fmt.Errorf("%w: rename %s", ErrDiskFault, target)
		}
	}
	return n, nil
}

// run applies op to the store, under the lock, once admitted.
func (d *DiskFS) run(kind opKind, name string, op func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.admitLocked(kind, name, 0); err != nil {
		return err
	}
	return op()
}

// do is run for operations that return a value.
func do[T any](d *DiskFS, kind opKind, name string, op func() (T, error)) (T, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.admitLocked(kind, name, 0); err != nil {
		var zero T
		return zero, err
	}
	return op()
}

// wrap routes an opened file's operations back through the injector.
func (d *DiskFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, d: d}, nil
}

// MkdirAll implements vfs.FS.
func (d *DiskFS) MkdirAll(dir string, perm fs.FileMode) error {
	return d.run(opPlain, dir, func() error { return d.inner.MkdirAll(dir, perm) })
}

// Create implements vfs.FS.
func (d *DiskFS) Create(name string) (vfs.File, error) {
	return d.wrap(do(d, opMutate, name, func() (vfs.File, error) { return d.inner.Create(name) }))
}

// CreateTemp implements vfs.FS.
func (d *DiskFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return d.wrap(do(d, opMutate, dir, func() (vfs.File, error) { return d.inner.CreateTemp(dir, pattern) }))
}

// Append implements vfs.FS.
func (d *DiskFS) Append(name string) (vfs.File, error) {
	return d.wrap(do(d, opMutate, name, func() (vfs.File, error) { return d.inner.Append(name) }))
}

// Open implements vfs.FS.
func (d *DiskFS) Open(name string) (vfs.File, error) {
	return d.wrap(do(d, opPlain, name, func() (vfs.File, error) { return d.inner.Open(name) }))
}

// ReadFile implements vfs.FS.
func (d *DiskFS) ReadFile(name string) ([]byte, error) {
	return do(d, opPlain, name, func() ([]byte, error) { return d.inner.ReadFile(name) })
}

// Rename implements vfs.FS; the verdict keys on the destination.
func (d *DiskFS) Rename(oldpath, newpath string) error {
	return d.run(opRename, newpath, func() error { return d.inner.Rename(oldpath, newpath) })
}

// Remove implements vfs.FS.
func (d *DiskFS) Remove(name string) error {
	return d.run(opMutate, name, func() error { return d.inner.Remove(name) })
}

// Stat implements vfs.FS.
func (d *DiskFS) Stat(name string) (fs.FileInfo, error) {
	return do(d, opPlain, name, func() (fs.FileInfo, error) { return d.inner.Stat(name) })
}

// ReadDir implements vfs.FS.
func (d *DiskFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	return do(d, opPlain, dir, func() ([]fs.DirEntry, error) { return d.inner.ReadDir(dir) })
}

// SyncDir implements vfs.FS.
func (d *DiskFS) SyncDir(dir string) error {
	return d.run(opSync, dir, func() error { return d.inner.SyncDir(dir) })
}

// diskFile is a store handle behind the injector.
type diskFile struct {
	vfs.File
	d *DiskFS
}

func (h *diskFile) Read(p []byte) (int, error) {
	return do(h.d, opPlain, "", func() (int, error) { return h.File.Read(p) })
}

// Write persists the verdict's prefix of p, then reports its fault.
func (h *diskFile) Write(p []byte) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	keep, err := h.d.admitLocked(opWrite, h.Name(), len(p))
	if keep == 0 && err != nil {
		return 0, err
	}
	n, werr := h.File.Write(p[:keep])
	if werr != nil {
		return n, werr
	}
	return n, err
}

func (h *diskFile) Sync() error { return h.d.run(opSync, h.Name(), h.File.Sync) }

func (h *diskFile) Chmod(mode fs.FileMode) error {
	return h.d.run(opPlain, "", func() error { return h.File.Chmod(mode) })
}

func (h *diskFile) Close() error { return h.d.run(opPlain, "", h.File.Close) }

// memFS is the in-memory store: a filesystem that distinguishes written
// from durable. File bytes become durable only at File.Sync, and
// directory entries (creations, renames, removals) only at SyncDir on
// the parent. crash discards everything volatile — unsynced appends
// survive only as a deterministic torn prefix, unsynced renames roll
// back, unsynced removals resurrect — which is exactly the state a
// machine reboot hands a recovery path. memFS takes no lock and decides
// no fault: its DiskFS does both.
type memFS struct {
	rng *sim.Rand // torn-tail draws at crash time

	dirs map[string]bool
	// live is the namespace the running process sees; durable maps the
	// names whose directory entries have reached "disk" (SyncDir). The
	// two share *dfile pointers: content durability is the per-file
	// synced watermark, entry durability is membership here.
	live    map[string]*dfile
	durable map[string]*dfile

	tempSeq int
}

// dfile is one file's bytes plus the watermark of what Sync has made
// durable. Content past synced is volatile: a crash keeps only a torn
// prefix of it.
type dfile struct {
	data   []byte
	synced int
}

func newMemFS(seed uint64) *memFS {
	return &memFS{
		rng:     sim.NewRand(seed),
		dirs:    map[string]bool{".": true, "/": true},
		live:    map[string]*dfile{},
		durable: map[string]*dfile{},
	}
}

// crash reboots the store into its durable state: only entries made
// durable by SyncDir survive, each holding its synced bytes plus a
// deterministic torn prefix of any unsynced tail.
func (m *memFS) crash() {
	names := make([]string, 0, len(m.durable))
	for name := range m.durable {
		names = append(names, name)
	}
	sort.Strings(names) // draw torn tails in a seed-determined order
	m.live = make(map[string]*dfile, len(m.durable))
	for _, name := range names {
		f := m.durable[name]
		n := f.synced
		if len(f.data) > n {
			// The unsynced tail may have partially reached the platter:
			// keep a random prefix of it (possibly none, possibly all).
			n += m.rng.IntN(len(f.data) - n + 1)
		}
		m.live[name] = &dfile{data: append([]byte(nil), f.data[:n]...), synced: n}
	}
	m.durable = make(map[string]*dfile, len(m.live))
	for name, f := range m.live {
		m.durable[name] = f
	}
}

// MkdirAll implements vfs.FS. Directory creation is treated as
// immediately durable — the engine's crash surface is file writes, not
// mkdir.
func (m *memFS) MkdirAll(dir string, _ fs.FileMode) error {
	for dir = filepath.Clean(dir); dir != "." && dir != "/" && dir != ""; dir = filepath.Dir(dir) {
		m.dirs[dir] = true
	}
	return nil
}

// lookup returns name's live file, or op's not-exist error.
func (m *memFS) lookup(op, name string) (*dfile, error) {
	if f, ok := m.live[name]; ok {
		return f, nil
	}
	return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// link enters f under name, whose parent directory must exist.
func (m *memFS) link(op, name string, f *dfile) error {
	if !m.dirs[filepath.Dir(name)] {
		return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	m.live[name] = f
	return nil
}

// open links f under name and hands out a writable handle to it.
func (m *memFS) open(op, name string, f *dfile) (vfs.File, error) {
	if err := m.link(op, name, f); err != nil {
		return nil, err
	}
	return &memFile{name: name, f: f}, nil
}

// Create implements vfs.FS: a fresh (truncated) file. The new content
// and the directory entry are both volatile until synced.
func (m *memFS) Create(name string) (vfs.File, error) {
	return m.open("create", filepath.Clean(name), &dfile{})
}

// CreateTemp implements vfs.FS, numbering temp names sequentially.
func (m *memFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	m.tempSeq++
	seq := fmt.Sprintf("%09d", m.tempSeq)
	base := pattern + seq
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		base = pattern[:i] + seq + pattern[i+1:]
	}
	return m.open("createtemp", filepath.Join(filepath.Clean(dir), base), &dfile{})
}

// Append implements vfs.FS: open for appending, creating if absent.
func (m *memFS) Append(name string) (vfs.File, error) {
	name = filepath.Clean(name)
	f, err := m.lookup("append", name)
	if err != nil {
		f = &dfile{}
	}
	return m.open("append", name, f)
}

// Open implements vfs.FS (read-only).
func (m *memFS) Open(name string) (vfs.File, error) {
	name = filepath.Clean(name)
	f, err := m.lookup("open", name)
	if err != nil {
		return nil, err
	}
	return &memFile{name: name, f: f, readonly: true}, nil
}

// ReadFile implements vfs.FS.
func (m *memFS) ReadFile(name string) ([]byte, error) {
	f, err := m.lookup("open", filepath.Clean(name))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), f.data...), nil
}

// Rename implements vfs.FS. The swapped entry is volatile until SyncDir:
// a crash before it rolls the target back to its previous content (or
// absence).
func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath = filepath.Clean(oldpath)
	f, err := m.lookup("rename", oldpath)
	if err != nil {
		return err
	}
	if err := m.link("rename", filepath.Clean(newpath), f); err != nil {
		return err
	}
	delete(m.live, oldpath)
	return nil
}

// Remove implements vfs.FS. Volatile until SyncDir: a crash before it
// resurrects the file.
func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	if _, err := m.lookup("remove", name); err != nil {
		return err
	}
	delete(m.live, name)
	return nil
}

// Stat implements vfs.FS.
func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	name = filepath.Clean(name)
	if f, ok := m.live[name]; ok {
		return dfileInfo{name: filepath.Base(name), size: int64(len(f.data))}, nil
	}
	if m.dirs[name] {
		return dfileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

// ReadDir implements vfs.FS.
func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	var entries []fs.DirEntry
	for name, f := range m.live {
		if filepath.Dir(name) == dir {
			entries = append(entries, fs.FileInfoToDirEntry(dfileInfo{name: filepath.Base(name), size: int64(len(f.data))}))
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	return entries, nil
}

// SyncDir implements vfs.FS: dir's entry changes since the last SyncDir
// become durable — created/renamed names are pinned, removed names are
// truly gone.
func (m *memFS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return &fs.PathError{Op: "syncdir", Path: dir, Err: fs.ErrNotExist}
	}
	for name, f := range m.live {
		if filepath.Dir(name) == dir {
			m.durable[name] = f
		}
	}
	for name := range m.durable {
		if _, ok := m.live[name]; !ok && filepath.Dir(name) == dir {
			delete(m.durable, name)
		}
	}
	return nil
}

// memFile is a memFS handle.
type memFile struct {
	name     string
	f        *dfile
	readonly bool
	readOff  int
	closed   bool
}

func (h *memFile) Name() string { return h.name }

func (h *memFile) Read(p []byte) (int, error) {
	if h.closed {
		return 0, fs.ErrClosed
	}
	if h.readOff >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.readOff:])
	h.readOff += n
	return n, nil
}

func (h *memFile) Write(p []byte) (int, error) {
	if h.closed {
		return 0, fs.ErrClosed
	}
	if h.readonly {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrPermission}
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

// Sync makes the file's current bytes durable (content only — the
// directory entry needs SyncDir).
func (h *memFile) Sync() error {
	if h.closed {
		return fs.ErrClosed
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memFile) Chmod(fs.FileMode) error { return nil }

func (h *memFile) Close() error {
	h.closed = true
	return nil
}

// dfileInfo is the fs.FileInfo for memFS entries.
type dfileInfo struct {
	name string
	size int64
	dir  bool
}

func (i dfileInfo) Name() string { return i.name }
func (i dfileInfo) Size() int64  { return i.size }
func (i dfileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i dfileInfo) ModTime() time.Time { return time.Time{} }
func (i dfileInfo) IsDir() bool        { return i.dir }
func (i dfileInfo) Sys() any           { return nil }
