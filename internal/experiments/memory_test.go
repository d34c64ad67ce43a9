package experiments

import (
	"runtime"
	"testing"

	"repro/internal/system"
)

// TestQuickTrialMemoryCeiling guards the quick trials' memory: against a
// warmed machine pool each must stay far below what it allocated with
// O(message) receiver streams or a machine built per trial (sync
// 515 MB, rel 183 MB, tab3 882 MB, sec61f 906 MB, ablate 214 MB; pooled
// they allocate about 16, 8 and 0.3 MB for the last three). The ceilings
// are deliberately generous so routine churn passes, but a return to
// per-trial system.New or to O(message) streams trips them.
func TestQuickTrialMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full quick trials per experiment")
	}
	cases := []struct {
		id      string
		ceiling uint64
	}{
		{"sync", 80 << 20},
		{"rel", 60 << 20},
		{"tab3", 64 << 20},
		{"sec61f", 32 << 20},
		{"ablate", 16 << 20},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			e, ok := Get(tc.id)
			if !ok {
				t.Fatalf("experiment %q not registered", tc.id)
			}
			pool := &system.Pool{}
			run := func() {
				t.Helper()
				if _, err := e.Run(Options{Seed: 0x5eed, Quick: true, Machines: pool}); err != nil {
					t.Fatal(err)
				}
			}
			run() // cold: builds the machines the pool will recycle
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			delta := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s quick trial (warm pool) allocated %.1f MB", tc.id, float64(delta)/(1<<20))
			if delta > tc.ceiling {
				t.Errorf("%s quick trial allocated %.1f MB, ceiling %.0f MB",
					tc.id, float64(delta)/(1<<20), float64(tc.ceiling)/(1<<20))
			}
		})
	}
}
