// Registry behavior, the whole-catalog golden test and the deadline
// audit. This file is an external test package so it can drive the
// registry through a sweep fleet (internal/sweepd) and internal/runner,
// which import experiments, without a cycle.
package experiments_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweepd"
	"repro/internal/system"
)

func TestGetUnknownID(t *testing.T) {
	for _, id := range []string{"", "nope", "fig999", "FIG3"} {
		if e, ok := experiments.Get(id); ok {
			t.Errorf("Get(%q) unexpectedly found %q", id, e.ID)
		}
	}
}

func TestGetKnownID(t *testing.T) {
	e, ok := experiments.Get("fig3")
	if !ok || e.ID != "fig3" || e.Run == nil || e.Title == "" {
		t.Fatalf("Get(fig3) = %+v, %v", e, ok)
	}
}

func TestAllOrderingStable(t *testing.T) {
	all := experiments.All()
	if len(all) == 0 {
		t.Fatal("no experiments registered")
	}
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("All() not sorted by ID: %v", ids)
	}
	again := experiments.All()
	for i := range all {
		if all[i].ID != again[i].ID {
			t.Fatalf("All() ordering unstable at %d: %q vs %q", i, all[i].ID, again[i].ID)
		}
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
}

// TestAllExperimentsRender pins every catalog report, byte for byte, to
// testdata/golden_<id>_quick.txt. Each experiment runs once on fresh
// machines, the experiments in parallel, and the whole catalog runs twice
// more, in All() order, on one Pool shared by every experiment. The fresh
// runs catch any behavioural drift (a reordered cohort, a float summed in
// a different order, a skipped sample). The pooled rounds catch state
// that Machine.Reset fails to restore (a stale ticker, a dirty cache set,
// a leftover ratio limit), also when only another experiment's run leaves
// it behind, and scratch state leaked between runs. The second pooled
// round must find the pool exactly as the first left it: every machine a
// run draws goes back through Release. -short keeps only the fresh runs.
//
// Regenerate (only for an intentional behaviour change) with
//
//	go run ./cmd/ufsim -experiment all -quick -out DIR
//
// and rename each DIR/<id>.txt to testdata/golden_<id>_quick.txt.
func TestAllExperimentsRender(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden_*_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]bool{}
	for _, path := range goldens {
		golden[strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "golden_"), "_quick.txt")] = true
	}
	for _, e := range experiments.All() {
		if !golden[e.ID] {
			t.Errorf("experiment %q has no golden report", e.ID)
		}
		delete(golden, e.ID)
	}
	for id := range golden {
		t.Errorf("golden report for unregistered experiment %q", id)
	}
	render := func(t *testing.T, e experiments.Experiment, run string, pool *system.Pool) {
		t.Helper()
		path := filepath.Join("testdata", "golden_"+e.ID+"_quick.txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		opts := experiments.DefaultOptions()
		opts.Quick, opts.Machines = true, pool
		res, err := e.Run(opts)
		if err != nil {
			t.Errorf("%s %s run: %v", e.ID, run, err)
			return
		}
		var got bytes.Buffer
		if err := res.Render(&got); err != nil {
			t.Errorf("%s %s run: render: %v", e.ID, run, err)
		} else if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s %s run diverged from %s\n--- got ---\n%s\n--- want ---\n%s", e.ID, run, path, got.Bytes(), want)
		}
	}
	if !testing.Short() {
		// Registered before the fresh runs: the serial walk is the long
		// pole.
		t.Run("pooled", func(t *testing.T) {
			t.Parallel()
			pool := &system.Pool{}
			idle := 0
			for round := 0; round < 2; round++ {
				for _, e := range experiments.All() {
					render(t, e, fmt.Sprintf("pooled round %d", round), pool)
				}
				switch {
				case pool.Size() == 0:
					t.Errorf("pooled round %d: pool never received a released machine", round)
				case round == 1 && pool.Size() != idle:
					t.Errorf("pooled round 1 changed the idle pool from %d to %d machines", idle, pool.Size())
				}
				idle = pool.Size()
			}
		})
	}
	for _, e := range experiments.All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			render(t, e, "fresh", nil)
		})
	}
}

// Every registered experiment must run under Quick with a short deadline
// and either finish or return promptly with the cancellation (or step
// budget) error — never hang, panic, or ignore its context. This is the
// audit check for the per-experiment cancellation checkpoints.
func TestEveryExperimentQuickUnderShortDeadline(t *testing.T) {
	cfg := runner.Config{
		Timeout: 400 * time.Millisecond,
		Grace:   10 * time.Second, // long: an abandonment here is a hard failure below
	}
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	units := sweepd.ReplicaUnits(ids, experiments.DefaultOptions().Seed, true, 1)
	c, err := sweepd.NewCoordinator(sweepd.CoordinatorConfig{QuarantineAfter: 1}, units)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	// Four workers run the catalog the way `ufsim -experiment all -quick
	// -jobs 4` does, each unit through runner.RunOne; the test keeps each
	// unit's full report.
	var (
		mu      sync.Mutex
		reports []runner.Report
	)
	sweepd.RunFleet(context.Background(), c, sweepd.FleetConfig{
		Workers: 4,
		Jobs:    1,
		NewRunner: func(string) sweepd.UnitRunner {
			return func(ctx context.Context, u sweepd.Unit, _ func(string)) sweepd.UnitResult {
				e, _ := experiments.Get(u.Experiment)
				run := cfg
				run.Seed, run.Quick = u.Seed, u.Quick
				rep := runner.RunOne(ctx, run, e, nil)
				mu.Lock()
				reports = append(reports, rep)
				mu.Unlock()
				return sweepd.UnitResult{OK: rep.Status == runner.StatusDone, Error: string(rep.Status), Attempts: rep.Attempts}
			}
		},
	})
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	if len(reports) != len(experiments.All()) {
		t.Fatalf("%d reports for %d experiments", len(reports), len(experiments.All()))
	}
	for _, rep := range reports {
		rep := rep
		t.Run(rep.ID, func(t *testing.T) {
			if rep.Abandoned {
				t.Fatalf("%s ignored its cancelled context past the grace window", rep.ID)
			}
			switch rep.Status {
			case runner.StatusDone:
				if rep.Result == nil {
					t.Errorf("%s done without a result", rep.ID)
				}
			case runner.StatusFailed:
				// The only acceptable failure under a short deadline is
				// the deadline itself (or a step budget, if armed).
				if !errors.Is(rep.Err, context.DeadlineExceeded) && !errors.Is(rep.Err, sim.ErrBudgetExceeded) {
					t.Errorf("%s failed with %v, want only deadline/budget errors", rep.ID, rep.Err)
				}
			default:
				t.Errorf("%s unexpectedly %s (%v)", rep.ID, rep.Status, rep.Err)
			}
		})
	}
}
