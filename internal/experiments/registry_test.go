// Registry behavior and the deadline audit. This file is an external
// test package so it can drive the registry through a sweep fleet
// (internal/sweepd) and internal/runner, which import experiments,
// without a cycle. The golden table is catalog_test.go.
package experiments_test

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweepd"
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
