package sweepd

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/vfs"
)

// flakyFS wraps a vfs.FS and, once tripped, fails every mutation — the
// disk-went-bad scenario degraded mode exists for. Reads keep working,
// matching a filesystem remounted read-only.
type flakyFS struct {
	vfs.FS
	broken *atomic.Bool
}

var errFlaky = errors.New("flaky: injected write failure")

func (f flakyFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return flakyFile{file, f.broken}, nil
}

func (f flakyFS) Create(name string) (vfs.File, error) {
	if f.broken.Load() {
		return nil, errFlaky
	}
	return f.wrap(f.FS.Create(name))
}

func (f flakyFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if f.broken.Load() {
		return nil, errFlaky
	}
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f flakyFS) Append(name string) (vfs.File, error) {
	if f.broken.Load() {
		return nil, errFlaky
	}
	return f.wrap(f.FS.Append(name))
}

func (f flakyFS) Rename(oldname, newname string) error {
	if f.broken.Load() {
		return errFlaky
	}
	return f.FS.Rename(oldname, newname)
}

type flakyFile struct {
	vfs.File
	broken *atomic.Bool
}

func (f flakyFile) Write(p []byte) (int, error) {
	if f.broken.Load() {
		return 0, errFlaky
	}
	return f.File.Write(p)
}

func (f flakyFile) Sync() error {
	if f.broken.Load() {
		return errFlaky
	}
	return f.File.Sync()
}

// completeOne leases one unit and completes it successfully.
func completeOne(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	lu := leaseOne(t, c, worker)
	c.Complete(CompleteRequest{Worker: worker, Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "r"})
}

// TestDegradedAfterPersistFailures: once checkpoint transitions fail
// PersistFailLimit times in a row, the coordinator refuses leases,
// surfaces degraded status, and Wait returns ErrDegraded instead of
// hanging on a sweep that can never durably finish.
func TestDegradedAfterPersistFailures(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	broken := &atomic.Bool{}
	c := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) {
		cfg.StateDir = t.TempDir()
		cfg.FS = flakyFS{vfs.OS{}, broken}
		cfg.PersistFailLimit = 2
	}, testUnits(5))
	defer c.Close()

	completeOne(t, c, "w") // healthy disk: persists
	if deg, _ := c.Degraded(); deg {
		t.Fatal("degraded on a healthy disk")
	}

	broken.Store(true)
	completeOne(t, c, "w") // first failed transition
	if deg, _ := c.Degraded(); deg {
		t.Fatal("degraded before PersistFailLimit")
	}
	completeOne(t, c, "w") // second: trips the limit

	deg, reason := c.Degraded()
	if !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q after %d failures", deg, reason, 2)
	}
	resp := c.Lease(LeaseRequest{Worker: "w", Max: 1})
	if !resp.Degraded || len(resp.Units) != 0 {
		t.Fatalf("degraded coordinator granted a lease: %+v", resp)
	}
	st := c.Snapshot()
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("status hides degraded mode: %+v", st)
	}
	if err := c.Wait(context.Background(), time.Millisecond); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Wait = %v, want ErrDegraded", err)
	}
}

// syncDirFails fails the first n directory fsyncs, then heals.
type syncDirFails struct {
	vfs.FS
	n *atomic.Int32
}

func (f syncDirFails) SyncDir(dir string) error {
	if f.n.Add(-1) >= 0 {
		return errFlaky
	}
	return f.FS.SyncDir(dir)
}

// TestDegradedBootstrap: the first generation goes through the same
// retried persist path as every transition. One failed directory fsync
// costs a retry, not the sweep; a disk where every fsync fails starts
// the coordinator degraded (exit 4 from serve) instead of failing
// NewCoordinator (exit 1).
func TestDegradedBootstrap(t *testing.T) {
	t.Run("one-failed-dir-fsync-retries", func(t *testing.T) {
		disk := faults.NewDiskFS(1)
		n := &atomic.Int32{}
		n.Store(1)
		c := newTestCoordinator(t, NewManualClock(time.Unix(0, 0)), func(cfg *CoordinatorConfig) {
			cfg.StateDir = "state"
			cfg.FS = syncDirFails{disk, n}
		}, testUnits(2))
		defer c.Close()
		if n.Load() >= 0 {
			t.Fatal("the injected directory fsync failure never fired")
		}
		if deg, reason := c.Degraded(); deg {
			t.Fatalf("one retried fsync failure degraded the coordinator: %s", reason)
		}
		if _, err := disk.ReadFile(filepath.Join("state", JournalManifestName)); err != nil {
			t.Fatalf("no durable generation after the retry: %v", err)
		}
		completeOne(t, c, "w")
	})
	t.Run("all-syncs-fail-degrades", func(t *testing.T) {
		disk := faults.NewFaultyDisk(nil, faults.DiskConfig{SyncErrProb: 1}, 1)
		c := newTestCoordinator(t, NewManualClock(time.Unix(0, 0)), func(cfg *CoordinatorConfig) {
			cfg.StateDir = "state"
			cfg.FS = disk
		}, testUnits(2))
		defer c.Close()
		deg, reason := c.Degraded()
		if !deg || reason == "" {
			t.Fatalf("Degraded() = %v, %q with every fsync failing", deg, reason)
		}
		if resp := c.Lease(LeaseRequest{Worker: "w", Max: 1}); !resp.Degraded || len(resp.Units) != 0 {
			t.Fatalf("coordinator without a durable generation granted a lease: %+v", resp)
		}
		if err := c.Wait(context.Background(), time.Millisecond); !errors.Is(err, ErrDegraded) {
			t.Fatalf("Wait = %v, want ErrDegraded", err)
		}
	})
}

// TestPersistFailureCounterResets: the failure count is *consecutive* —
// a transient blip that heals before the limit never degrades.
func TestPersistFailureCounterResets(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	broken := &atomic.Bool{}
	c := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) {
		cfg.StateDir = t.TempDir()
		cfg.FS = flakyFS{vfs.OS{}, broken}
		cfg.PersistFailLimit = 2
	}, testUnits(5))
	defer c.Close()

	broken.Store(true)
	completeOne(t, c, "w") // one failure
	broken.Store(false)
	completeOne(t, c, "w") // success resets the counter
	broken.Store(true)
	completeOne(t, c, "w") // one failure again — still under the limit

	if deg, _ := c.Degraded(); deg {
		t.Fatal("transient persist failures degraded the coordinator")
	}
	// The healed transitions are really on disk: a resumed coordinator
	// sees the two merged completions.
	broken.Store(false)
}

// TestCoordinatorSalvageExposed: a lossy journal recovery surfaces
// through Coordinator.Salvage and leaves the report on disk, while the
// sweep still resumes from the snapshot.
func TestCoordinatorSalvageExposed(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dir := t.TempDir()
	units := testUnits(3)
	c1 := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) { cfg.StateDir = dir }, units)
	completeOne(t, c1, "w")
	completeOne(t, c1, "w")
	c1.Close()

	// Corrupt the first journal record; the second record after it makes
	// this mid-stream corruption, so recovery falls back to the
	// all-pending snapshot taken at c1's open.
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

	c2 := newTestCoordinator(t, clk, func(cfg *CoordinatorConfig) {
		cfg.StateDir = dir
		cfg.Resume = true
	}, units)
	defer c2.Close()
	salv := c2.Salvage()
	if salv == nil || salv.Kind != "mid-stream-corruption" {
		t.Fatalf("Salvage() = %+v", salv)
	}
	if rep, err := ReadSalvageReport(nil, dir); err != nil || rep.Kind != salv.Kind {
		t.Fatalf("salvage report on disk: %+v, %v", rep, err)
	}
	// Fallback state: both completions lost with the journal, units
	// pending again — lossy but explicit, never silent.
	if st := c2.Snapshot(); st.Pending != 3 || st.Done != 0 {
		t.Fatalf("post-salvage snapshot: %+v", st)
	}
}
