package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/ufvariation"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// Tab2Result is Table 2: the maximum cross-core channel capacity of
// UF-variation while stress-ng --cache N thrashes the cache in the
// background.
type Tab2Result struct {
	N        []int
	Capacity []float64
}

// Render implements Result.
func (r Tab2Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 2: max UF-variation capacity (bit/s) under stress-ng --cache N")
	fmt.Fprint(w, "N:")
	for _, n := range r.N {
		fmt.Fprintf(w, "\t%d", n)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "capacity:")
	for _, c := range r.Capacity {
		fmt.Fprintf(w, "\t%.1f", c)
	}
	fmt.Fprintln(w)
	return nil
}

// Tab2Expected is the paper's Table 2 row.
var Tab2Expected = []float64{8.6, 7.2, 6.8, 5.1, 4.4, 3.0, 2.4, 0.2, 0}

// SpawnStressors launches n stress-ng --cache workers on the highest
// cores of socket, each bursting far-slice traffic (§4.3.3). It returns
// the spawned threads.
func SpawnStressors(m *system.Machine, socket, n int) []*system.Thread {
	s := m.Socket(socket)
	die := s.Die
	var threads []*system.Thread
	for i := 0; i < n; i++ {
		core := die.NumCores() - 1 - i
		// Each worker stirs a working set spread a couple of hops out:
		// per-worker pressure is moderate, so the uncore demand — and
		// the damage to the channel — scales with how many workers
		// burst at once.
		slice, ok := die.SliceAtHops(core, 2)
		if !ok {
			slice, _ = die.SliceAtHops(core, 1)
		}
		threads = append(threads, m.Spawn(fmt.Sprintf("stressng-%d", i), socket, core, 0, workload.NewCacheStressor(i, slice)))
	}
	return threads
}

// Tab2 reproduces Table 2: for each stressor count N, sweep the
// transmission interval and report the best capacity. The sender uses the
// heavy traffic loop, as §4.3.3 prescribes when other active cores would
// dilute the stalled fraction.
func Tab2(opts Options) (Tab2Result, error) {
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	intervals := []int{25, 40, 60, 90, 130}
	bits, trials := 100, 3
	if opts.Quick {
		ns = []int{1, 4, 9}
		intervals = []int{40, 90}
		bits, trials = 40, 1
	}
	res := Tab2Result{N: ns}
	for _, n := range ns {
		best := 0.0
		for _, ms := range intervals {
			if err := opts.Checkpoint("tab2: stressors=%d interval=%dms", n, ms); err != nil {
				return Tab2Result{}, err
			}
			iv := sim.Time(ms) * sim.Millisecond
			var errBits, totBits int
			for trial := 0; trial < trials; trial++ {
				m := opts.machine(platform(opts.Seed + uint64(trial)*104729 + uint64(n)))
				SpawnStressors(m, 0, n)
				cfg := ufvariation.DefaultConfig()
				cfg.UseTrafficLoop = true
				// Stressors occupy the high cores; keep both channel
				// parties on the low ones.
				cfg.Receiver = ufvariation.Placement{Socket: 0, Core: 1}
				cfg.Interval = iv
				cfg.Lead = 40*sim.Millisecond + sim.Time(trial)*5300*sim.Microsecond
				payload := channel.RandomBits(m.Rand(uint64(n*1000+ms)), bits)
				r, err := ufvariation.Run(m, cfg, payload)
				if err != nil {
					return Tab2Result{}, err
				}
				totBits += len(payload)
				errBits += int(r.BER*float64(len(payload)) + 0.5)
				opts.Release(m)
			}
			ber := float64(errBits) / float64(totBits)
			if c := capacityOf(1/iv.Seconds(), ber); c > best {
				best = c
			}
		}
		res.Capacity = append(res.Capacity, best)
	}
	return res, nil
}

func init() {
	register(Experiment{ID: "tab2", Title: "UF-variation capacity under stress-ng --cache N", Run: func(o Options) (Result, error) { return Tab2(o) }})
}
