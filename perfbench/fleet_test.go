package main

import "testing"

// One real sweep through the HTTP coordinator, traced: two workers, the
// poller and the wrappers all run concurrently (run with -race).
func TestFleetSweepCompletesEveryUnitOnce(t *testing.T) {
	e0, err := setupFleet(config{seed: 9, rounds: 1, state: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e := e0.(*fleetEnv)
	defer e.close()
	if f := e.setupFailures(); len(f) > 0 {
		t.Fatalf("set-up: %v", f)
	}
	tr := newTracer()
	r := e.run(0, tr)
	if r.failed != 0 || r.incorrect != 0 || r.units != fleetUnits {
		t.Fatalf("sweep: %d failed, %d incorrect, %v units", r.failed, r.incorrect, r.units)
	}
	ix := indexSpans(tr.snapshot())
	if n := len(ix.byName["sweepd.complete"]); n != fleetUnits {
		t.Errorf("%d complete spans, want %d", n, fleetUnits)
	}
	if r.counts["syncs"] == 0 || r.counts["renames"] == 0 {
		t.Errorf("journal I/O not counted: %v", r.counts)
	}
	again := e.run(0, nil)
	if digestOf([]round{again}) != digestOf([]round{r}) {
		t.Error("the same sweep gave a different digest untraced")
	}
}
