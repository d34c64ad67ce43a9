package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/system"
)

// The golden table is the one place the suite runs the catalog in quick
// mode. quickCatalog runs it once per test process: the whole catalog
// twice, in All() order, on one Pool shared by every experiment, then
// each experiment once more on fresh machines, the experiments in
// parallel. Every other test here checks what the table kept: the typed
// results, the fresh reports, the warm round's allocations and the paper
// rows (paper_test.go).
//
// The pooled walk is sequential, and the first test to ask for the
// catalog is a sequential top-level test (only full-mode rows call
// t.Parallel, and they never ask for it), so nothing else in the process
// allocates while the walk measures.

// catalogRun is what the table keeps of one experiment.
type catalogRun struct {
	fresh  Result    // on fresh machines
	report []byte    // fresh, rendered
	pooled [2]Result // the two rounds on the shared pool
	alloc  uint64    // bytes the second (warm) pooled round allocated
	err    error     // the first run or render error
}

type catalogRuns struct {
	runs map[string]*catalogRun
	idle [2]int // the shared pool's idle machines after each round
}

var quickCatalog = sync.OnceValue(func() *catalogRuns {
	c := &catalogRuns{runs: map[string]*catalogRun{}}
	for _, e := range All() {
		c.runs[e.ID] = &catalogRun{}
	}
	opts := DefaultOptions()
	opts.Quick, opts.Machines = true, &system.Pool{}
	for round := range c.idle {
		for _, e := range All() {
			run := c.runs[e.ID]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := e.Run(opts)
			runtime.ReadMemStats(&after)
			run.pooled[round], run.alloc = res, after.TotalAlloc-before.TotalAlloc
			if run.err == nil {
				run.err = err
			}
		}
		c.idle[round] = opts.Machines.Size()
	}
	opts.Machines = nil
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, e := range All() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			run := c.runs[e.ID]
			res, err := e.Run(opts)
			var buf bytes.Buffer
			if err == nil {
				err = res.Render(&buf)
			}
			run.fresh, run.report = res, buf.Bytes()
			if run.err == nil {
				run.err = err
			}
		}()
	}
	wg.Wait()
	return c
})

// quickRun returns the table's runs of id, failing t if any errored.
func quickRun(t *testing.T, id string) *catalogRun {
	t.Helper()
	run, ok := quickCatalog().runs[id]
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	if run.err != nil {
		t.Fatalf("%s: %v", id, run.err)
	}
	return run
}

// eachID runs check as one subtest per registered experiment.
func eachID(t *testing.T, check func(t *testing.T, id string)) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) { check(t, e.ID) })
	}
}

// checkGolden compares id's fresh report with its golden byte for byte.
func checkGolden(t *testing.T, id string) {
	t.Helper()
	path := filepath.Join("testdata", "golden_"+id+"_quick.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := quickRun(t, id).report; !bytes.Equal(got, want) {
		t.Errorf("%s fresh run diverged from %s\n--- got ---\n%s\n--- want ---\n%s", id, path, got, want)
	}
}

// checkPooled requires both pooled rounds of id to equal its fresh run,
// result for result at full precision. Render is a function of the
// typed result, so this is stronger than comparing reports: a pooled
// round differs when Machine.Reset fails to restore some state (a stale
// ticker, a dirty cache set, a leftover ratio limit), also when only
// another experiment's run leaves it behind, or when scratch state leaks
// between runs.
func checkPooled(t *testing.T, id string) {
	t.Helper()
	run := quickRun(t, id)
	for round, res := range run.pooled {
		if !reflect.DeepEqual(res, run.fresh) {
			t.Errorf("%s pooled round %d differs from the fresh run\n--- fresh ---\n%s\n--- pooled ---\n%s", id, round, run.report, render(res))
		}
	}
}

// checkTwice requires the two pooled rounds of id, the second after the
// whole catalog ran once, to be equal: the simulation must be a pure
// function of its options, whatever ran before it in the process.
func checkTwice(t *testing.T, id string) {
	t.Helper()
	run := quickRun(t, id)
	if !reflect.DeepEqual(run.pooled[0], run.pooled[1]) {
		t.Errorf("%s: two runs with the same seed differ\n--- first ---\n%s\n--- second ---\n%s", id, render(run.pooled[0]), render(run.pooled[1]))
	}
}

// checkPool requires the second pooled round to find the pool exactly
// as the first left it: every machine a run draws goes back through
// Release.
func checkPool(t *testing.T) {
	t.Helper()
	idle := quickCatalog().idle
	if idle[0] == 0 {
		t.Error("the shared pool never received a released machine")
	}
	if idle[1] != idle[0] {
		t.Errorf("pooled round 1 changed the idle pool from %d to %d machines", idle[0], idle[1])
	}
}

func render(res Result) []byte {
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		return []byte(err.Error())
	}
	return buf.Bytes()
}

// TestAllExperimentsRender is the table's report: the shared pool, then
// per experiment its fresh report against testdata/golden_<id>_quick.txt,
// both pooled rounds against the fresh result, and its quick paper rows.
//
// Regenerate the goldens (only for an intentional behaviour change) with
//
//	go run ./cmd/ufsim -experiment all -quick -out DIR
//
// and rename each DIR/<id>.txt to testdata/golden_<id>_quick.txt.
func TestAllExperimentsRender(t *testing.T) {
	t.Run("pooled", checkPool)
	eachID(t, func(t *testing.T, id string) {
		checkGolden(t, id)
		checkPooled(t, id)
		for _, name := range rowNames() {
			if r := rows[name]; r.id == id && r.full == nil {
				t.Run(name, func(t *testing.T) { r.check(t, quickRun(t, id).fresh) })
			}
		}
	})
}

func TestGoldenOutputs(t *testing.T)           { eachID(t, checkGolden) }
func TestRunTwiceIdentical(t *testing.T)       { eachID(t, checkTwice) }
func TestReliabilityReproducible(t *testing.T) { checkPooled(t, "rel") }

func TestPooledRunsIdentical(t *testing.T) {
	checkPool(t)
	eachID(t, checkPooled)
}

// TestRegistryComplete requires every registered experiment to be
// complete and to have exactly one golden report, and every golden to
// belong to a registered experiment.
func TestRegistryComplete(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden_*_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]bool{}
	for _, path := range goldens {
		golden[strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "golden_"), "_quick.txt")] = true
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if !golden[e.ID] {
			t.Errorf("experiment %q has no golden report", e.ID)
		}
		delete(golden, e.ID)
	}
	for id := range golden {
		t.Errorf("golden report for unregistered experiment %q", id)
	}
}

// TestQuickTrialMemoryCeiling guards the quick trials' memory: against
// the warmed shared pool each must stay far below what it allocated with
// O(message) receiver streams or a machine built per trial (sync
// 515 MB, rel 183 MB, tab3 882 MB, sec61f 906 MB, ablate 214 MB; the
// warm round allocates about 20, 0.2, 16, 8 and 0.3 MB). The ceilings
// are deliberately generous so routine churn passes, but a return to
// per-trial system.New or to O(message) streams trips them.
func TestQuickTrialMemoryCeiling(t *testing.T) {
	for _, c := range []struct {
		id      string
		ceiling uint64
	}{
		{"sync", 80 << 20},
		{"rel", 60 << 20},
		{"tab3", 64 << 20},
		{"sec61f", 32 << 20},
		{"ablate", 16 << 20},
	} {
		t.Run(c.id, func(t *testing.T) {
			alloc := quickRun(t, c.id).alloc
			t.Logf("%s quick trial (warm pool) allocated %.1f MB", c.id, float64(alloc)/(1<<20))
			if alloc > c.ceiling {
				t.Errorf("%s quick trial allocated %.1f MB, ceiling %.0f MB", c.id, float64(alloc)/(1<<20), float64(c.ceiling)/(1<<20))
			}
		})
	}
}
