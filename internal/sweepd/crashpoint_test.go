package sweepd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
)

// crashScript is the sweep the crash tests replay: u00 completes, u01
// fails on two distinct workers and is quarantined, u02 survives a lease
// expiry and then completes.
var crashScript = coordScript(3, 2, 3, lease(1, 1), succeed(0), lease(1, 1), fail(1), advance(2*sec), lease(2, 1), fail(2),
	lease(3, 1), advance(2*time.Minute), advance(2*sec), lease(0, 1), succeed(4))

// playCrashScript runs crashScript on disk with a kill armed after
// crashAfter mutating operations (-1: none). Only the invariants are
// checked: a kill or a fault takes the coordinator outside the model.
func playCrashScript(t *testing.T, disk *faults.DiskFS, crashAfter int) *coordHarness {
	h := newCoordHarness(t, crashScript[:coordHeader])
	h.disk, h.cfg.FS, h.unmodelled = disk, disk, true
	disk.CrashAfter(crashAfter)
	h.play(crashScript)
	return h
}

// TestCrashpointExhaustiveRecovery replays crashScript once per mutating
// disk operation with a kill armed exactly there. After each kill the
// machine reboots (DiskFS.Crash tears any unsynced tail) and a
// coordinator resumes: it never fails, restores as done only units whose
// completion was accepted, and finishes the sweep with every unit done,
// none merged twice (the harness's invariants).
func TestCrashpointExhaustiveRecovery(t *testing.T) {
	total := playCrashScript(t, faults.NewDiskFS(0xC0FFEE), -1).disk.Ops()
	if total < 40 {
		t.Fatalf("script performed only %d mutating ops; too few boundaries to be interesting", total)
	}
	for k := 0; k < total; k++ {
		t.Run(fmt.Sprintf("boundary-%03d", k), func(t *testing.T) {
			h := playCrashScript(t, faults.NewDiskFS(0xC0FFEE), k)
			if !h.disk.Crashed() {
				t.Fatalf("boundary %d/%d never hit", k, total)
			}
			h.step(restart())
			h.finish()
			if h.last.Done != len(h.grids[0]) {
				t.Fatalf("boundary %d: sweep ended %+v, want every unit done", k, h.last)
			}
		})
	}
}
