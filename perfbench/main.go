// Command perfbench is ufsim's benchmark. It runs one workload's
// seed-generated op list in full, so two runs of one seed do identical
// simulated work and differ only by host noise, and prints one JSON
// result line. Every layer is measured from outside: the benchmark times
// calls into the packages' public functions and reads their public
// counters. See README.md for the workloads and metrics.
//
//	perfbench --workload covert-arq --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs every round
// twice, untraced and traced, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// procStart approximates process start: package variables initialise
// before main runs, after the runtime and imported packages.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: covert-arq, characterize or sweep-fleet")
	seed := fs.Uint64("seed", 1, "seed the op list is generated from")
	seconds := fs.Int("seconds", 20, "run length; sizes the fixed op list")
	trace := fs.Int("trace", 0, "1 runs every round untraced and traced and reports per-layer metrics")
	state := fs.String("state", ".bench_build/perfbench", "directory for journals, traces and seed digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*state, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := execute(wl, config{seed: *seed, seconds: *seconds, traced: *trace == 1, state: *state})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type config struct {
	seed    uint64
	seconds int
	traced  bool
	state   string
	// rounds is the op list length, derived from seconds.
	rounds int
}

// execute sets the workload up setupReps times (reporting the median),
// runs its op list, checks the outputs and the seed's digest, and
// assembles the result.
func execute(wl workload, cfg config) (result, error) {
	rounds := wl.rounds(cfg.seconds)
	cfg.rounds = rounds
	var setups []float64
	var e env
	for k := 0; k < wl.setupReps; k++ {
		if e != nil {
			e.close()
			e = nil
			// Hand the previous set-up's memory back to the OS so every
			// set-up faults its arrays in afresh, as the first one does.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		var err error
		if e, err = wl.setup(cfg); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	var plain, traced []round
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	// The peak RSS, like the throughput, leaves out rounds with a failed
	// op: a covert session that degrades to its slowest bit interval
	// before giving up holds ~40 MiB more receiver state than any
	// session that delivers.
	peakRSS := 0.0
	for i := 0; i < rounds; i++ {
		before := peakRSSMB()
		plain = append(plain, e.run(i, nil))
		if plain[i].failed > 0 {
			peakRSS = max(peakRSS, before)
			resetPeakRSS()
		}
		if tr != nil {
			traced = append(traced, e.run(i, tr))
		}
	}
	peakRSS = max(peakRSS, peakRSSMB())

	// A failed op is one the program reported it could not do; an op
	// that reported success with a wrong output, a failed set-up check
	// or a diverged digest makes the run incorrect.
	all := sumRounds(append(append([]round(nil), plain...), traced...))
	res := result{Correct: all.incorrect == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metric{}}
	for _, f := range e.setupFailures() {
		res.Attempted++
		res.Failed++
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: set-up check failed: %s\n", wl.name, f)
	}

	dg := digestOf(plain)
	fmt.Printf("digest %s seed=%d seconds=%d %s\n", wl.name, cfg.seed, cfg.seconds, dg)
	if tr != nil {
		if td := digestOf(traced); td != dg {
			fmt.Fprintf(os.Stderr, "perfbench: traced rounds diverged from untraced ones: %s vs %s\n", td, dg)
			res.Correct = false
		}
	}
	if err := checkDigest(cfg, wl.name, dg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
	}

	// Throughput is the median over rounds of each round's own rate, so
	// a host hiccup during a few rounds does not move it, and only rounds
	// whose ops all succeeded count. A failed op is already counted in
	// Failed; charging its cost (a session that retries for minutes of
	// simulated time) to the throughput too would swing a run's figure
	// by half.
	ok := succeeded(plain)
	sumPlain := sumRounds(ok)
	if !cfg.traced {
		res.Metrics["cpu_throughput"] = metric{rate(ok, cpuCost), "op/cpu-s"}
		res.Metrics["wall_throughput"] = metric{rate(ok, wallCost), "op/s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSS, "MiB"}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds (%d with a failed op), %.0f ops in %.2fs wall / %.2fs CPU; set-ups %v\n",
			wl.name, rounds, rounds-len(ok), sumPlain.units, sumPlain.wall.Seconds(), sumPlain.cpu.Seconds(), setups)
	} else {
		// Per-layer figures cover the same rounds as the end-to-end ones:
		// those whose ops all succeeded.
		lm := layerMetrics{}
		tok := succeeded(traced)
		if len(tok) > 0 {
			keep := map[uint64]bool{}
			for i, r := range traced {
				keep[uint64(i+1)] = r.failed == 0
			}
			var spans []span
			for _, s := range tr.snapshot() {
				if keep[s.Trace] {
					spans = append(spans, s)
				}
			}
			wl.layers(lm, ok, tok, indexSpans(spans))
		}
		plainThr, tracedThr := rate(ok, cpuCost), rate(tok, cpuCost)
		lm["trace.overhead_pct"] = (plainThr - tracedThr) / plainThr * 100
		lm["go.alloc_mb_per_op"] = sumPlain.rt.allocBytes / (1 << 20) / sumPlain.units
		lm["go.gc_cpu_s_per_op"] = sumPlain.rt.gcCPUSecs / sumPlain.units
		for _, d := range perLayer {
			v := lm[d.name] // a layer the workload does not use reads 0
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s had no samples\n", wl.name, d.name)
				v = 0
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
		path := filepath.Join(cfg.state, fmt.Sprintf("trace-%s-s%d.jsonl", wl.name, cfg.seed))
		if err := tr.writeJSONL(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans written to %s\n", wl.name, len(tr.snapshot()), path)
	}
	return res, nil
}

// succeeded returns the rounds in which no op failed.
func succeeded(rs []round) []round {
	var out []round
	for _, r := range rs {
		if r.failed == 0 {
			out = append(out, r)
		}
	}
	return out
}

func cpuCost(r round) time.Duration  { return r.cpu }
func wallCost(r round) time.Duration { return r.wall }

// rate is the median over rounds of units per second of cost.
func rate(rs []round, cost func(round) time.Duration) float64 {
	var xs []float64
	for _, r := range rs {
		if c := cost(r).Seconds(); c > 0 {
			xs = append(xs, r.units/c)
		}
	}
	return median(xs)
}

// layerMetrics collects per-layer values by name.
type layerMetrics map[string]float64
