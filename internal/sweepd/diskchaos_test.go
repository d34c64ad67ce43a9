package sweepd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
)

// stateFiles reads every file in d's state dir.
func stateFiles(t *testing.T, d *faults.DiskFS, dir string) map[string]string {
	t.Helper()
	ents, err := d.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		data, err := d.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestJournalDiskChaosDeterministic: the crashpoint script under the CI
// chaos job's disk mix and seed, run twice, draws the same faults and
// leaves byte-identical state behind.
func TestJournalDiskChaosDeterministic(t *testing.T) {
	run := func() (faults.DiskStats, map[string]string) {
		d := faults.NewFaultyDisk(nil, faults.DefaultDiskConfig(0.3), 20230731)
		playCrashScript(t, d, -1)
		return d.Stats(), stateFiles(t, d, "state")
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 {
		t.Fatalf("same seed, different verdicts: %+v vs %+v", s1, s2)
	}
	if s1.Writes == 0 || len(f1) == 0 {
		t.Fatalf("script wrote nothing through the injector: %+v, %d files", s1, len(f1))
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("same seed, different state dirs:\n%v\nvs\n%v", f1, f2)
	}
}

// TestJournalChaosSeedSweep: across 32 seeds at the CI intensity and at
// full intensity, a scripted sweep over the faulty in-memory disk ends
// with every unit done exactly once or with the coordinator degraded,
// and fsck finds the surviving state dir clean.
func TestJournalChaosSeedSweep(t *testing.T) {
	var injected, degraded int
	for _, intensity := range []float64{0.3, 1.0} {
		for seed := uint64(1); seed <= 32; seed++ {
			name := fmt.Sprintf("intensity %.1f seed %d", intensity, seed)
			d := faults.NewFaultyDisk(nil, faults.DefaultDiskConfig(intensity), seed)
			clk := NewManualClock(time.Unix(0, 0))
			c, err := NewCoordinator(CoordinatorConfig{
				LeaseTTL: time.Minute, RetryBase: time.Second, Clock: clk,
				StateDir: "state", FS: d, SnapshotEvery: 4, Log: io.Discard,
			}, testUnits(12))
			if err != nil {
				t.Fatalf("%s: NewCoordinator: %v", name, err)
			}
			for round := 0; ; round++ {
				if round > 100 {
					t.Fatalf("%s: sweep did not finish", name)
				}
				resp := c.Lease(LeaseRequest{Worker: "w", Max: 3})
				if resp.Done || resp.Degraded {
					break
				}
				for _, lu := range resp.Units {
					c.Complete(CompleteRequest{Worker: "w", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "r"})
				}
			}
			err = c.Wait(context.Background(), time.Millisecond)
			if deg, _ := c.Degraded(); deg {
				degraded++
				if !errors.Is(err, ErrDegraded) {
					t.Fatalf("%s: degraded coordinator's Wait = %v", name, err)
				}
			} else {
				if err != nil {
					t.Fatalf("%s: Wait = %v", name, err)
				}
				for _, u := range c.Snapshot().Units {
					if u.State != UnitDone || u.Completions != 1 {
						t.Fatalf("%s: %s is %s after %d completion(s)", name, u.Unit.ID, u.State, u.Completions)
					}
				}
			}
			c.Close()
			rep, err := Fsck(d, "state")
			if err != nil || !rep.Clean() {
				t.Fatalf("%s: fsck: %v %+v", name, err, rep)
			}
			st := d.Stats()
			injected += st.WriteErrs + st.ShortWrites + st.SyncErrs + st.RenameErrs
		}
	}
	if injected == 0 {
		t.Fatal("no disk fault was injected across the seed sweep")
	}
	t.Logf("%d faults injected, %d of 64 runs degraded", injected, degraded)
}
