package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one benchmark workload: a set-up that ends with one
// untimed warm-up round, and a fixed op list of rounds sized from the
// run length.
type workload struct {
	name string
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median.
	setupReps int
	// perSecond is how many rounds one second of run length buys: the
	// op list has round(perSecond·seconds) rounds, so a run's work
	// depends only on its seed and length, never on host speed.
	perSecond float64
	setup     func(cfg config) (env, error)
	// layers derives the workload's per-layer metrics from the untraced
	// rounds, the traced rounds, and the traced rounds' spans. It sees
	// only rounds whose ops all succeeded, and at least one of each.
	layers func(lm layerMetrics, plain, traced []round, ix spanIndex)
}

var workloads = map[string]workload{}

// warmupSeed generates every workload's warm-up round. It is the same
// for every --seed, so set-up does the same work in every run.
const warmupSeed = 0

func register(w workload) { workloads[w.name] = w }

func (w workload) rounds(seconds int) int {
	return max(1, int(math.Round(w.perSecond*float64(seconds))))
}

// env is a set-up workload ready to run rounds of its op list.
type env interface {
	// run executes round i; a nil tracer runs it untraced. The round's
	// spans carry trace ID i+1.
	run(i int, tr *tracer) round
	// setupFailures lists output checks that failed during set-up.
	setupFailures() []string
	close()
}

// round is what one round of the op list did and cost.
type round struct {
	// failed counts ops that did not succeed; incorrect, the subset
	// that reported success with a wrong output.
	attempted, failed, incorrect int
	// units is the work delivered, in the workload's op unit.
	units float64
	// wall, cpu and rt cover only the timed part of the round.
	wall, cpu time.Duration
	rt        goRuntime
	// sim lists the round's simulated statistics in a fixed order; the
	// seed digest is taken over them.
	sim []uint64
	// counts and samples carry per-layer counters and distributions
	// for the workload's layers().
	counts  map[string]float64
	samples map[string][]float64
}

// window times one timed section of a round.
type window struct {
	wall0 time.Time
	cpu0  time.Duration
	rt0   goRuntime
}

func startWindow() window {
	return window{rt0: readGoRuntime(), cpu0: cpuTime(), wall0: time.Now()}
}

// stop adds the section's wall, CPU and runtime deltas to r.
func (w window) stop(r *round) {
	r.wall += time.Since(w.wall0)
	r.cpu += cpuTime() - w.cpu0
	r.rt = r.rt.add(readGoRuntime().sub(w.rt0))
}

// sumRounds totals rounds' work, costs and counters.
func sumRounds(rs []round) round {
	var s round
	s.counts = map[string]float64{}
	s.samples = map[string][]float64{}
	for _, r := range rs {
		s.attempted += r.attempted
		s.failed += r.failed
		s.incorrect += r.incorrect
		s.units += r.units
		s.wall += r.wall
		s.cpu += r.cpu
		s.rt = s.rt.add(r.rt)
		for k, v := range r.counts {
			s.counts[k] += v
		}
		for k, v := range r.samples {
			s.samples[k] = append(s.samples[k], v...)
		}
	}
	return s
}

// digestOf hashes every round's simulated statistics in order. Two runs
// of one seed and length must produce the same digest; a speed-only
// change must leave it unchanged.
func digestOf(rs []round) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rs {
		for _, v := range r.sim {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkDigest records the first digest seen for (build, workload, seed,
// length) under the state directory and fails when a later run of the
// same build disagrees with it. A rebuilt binary starts a new record.
func checkDigest(cfg config, name, digest string) error {
	build, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.state, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-s%d-t%d.txt", build, name, cfg.seed, cfg.seconds))
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return os.WriteFile(path, []byte(digest+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	if got := strings.TrimSpace(string(prev)); got != digest {
		return fmt.Errorf("simulated statistics diverged for seed %d: digest %s, an earlier run of this build recorded %s", cfg.seed, digest, got)
	}
	return nil
}

// buildID hashes the running executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every --trace 0 run reports.
var endToEnd = []metricDef{
	{"cpu_throughput", "op/cpu-s"},
	{"wall_throughput", "op/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics every --trace 1 run reports. A layer a
// workload does not use reads 0 there.
var perLayer = []metricDef{
	// channel/link (covert-arq)
	{"link.send_s", "s/op"},
	{"link.self_s", "s/op"},
	{"link.transmissions", "1/op"},
	{"link.retransmissions", "1/op"},
	{"link.recalibrations", "1/op"},
	{"link.useful_ratio", "ratio"},
	{"air_goodput_bps", "bit/s"},
	// channel/ufvariation (covert-arq)
	{"phy.transmit_s", "s/op"},
	{"phy.feedback_s", "s/op"},
	{"phy.idle_s", "s/op"},
	{"phy.raw_ber", "ratio"},
	// system, sim (covert-arq)
	{"system.sim_s", "s/op"},
	{"system.host_us_per_sim_ms", "us/ms"},
	{"system.pool_get_ms", "ms"},
	{"sim.engine_steps", "1/op"},
	{"sim.ns_per_step", "ns"},
	// ufs, cache (covert-arq)
	{"ufs.epochs", "1/op"},
	{"ufs.held_epochs", "1/op"},
	{"cache.llc_inserts", "1/op"},
	{"cache.llc_evictions", "1/op"},
	// runner, experiments (characterize)
	{"runner.self_s", "s/op"},
	{"exp.fig3_s", "s/op"},
	{"exp.fig4_s", "s/op"},
	{"exp.fig5_s", "s/op"},
	{"exp.fig6_s", "s/op"},
	{"exp.fig7_s", "s/op"},
	{"exp.sec32_s", "s/op"},
	{"exp.render_ms", "ms/op"},
	{"system.pool_size", "count"},
	// sweepd (sweep-fleet)
	{"status_p50_ms", "ms"},
	{"status_p99_ms", "ms"},
	{"status.samples", "count"},
	{"status.lag_ms", "ms"},
	{"sweepd.status_kb", "KiB"},
	{"sweepd.lease_p50_ms", "ms"},
	{"sweepd.lease_p99_ms", "ms"},
	{"sweepd.complete_p50_ms", "ms"},
	{"sweepd.complete_p99_ms", "ms"},
	{"sweepd.rpcs_per_unit", "1/op"},
	{"gate.inflight_max", "count"},
	{"gate.queued_max", "count"},
	{"gate.shed", "count"},
	// vfs (sweep-fleet journal)
	{"vfs.syncs_per_unit", "1/op"},
	{"vfs.bytes_per_unit", "B/op"},
	{"vfs.sync_p50_us", "us"},
	{"vfs.renames", "1/sweep"},
	// Go runtime and the tracer itself (all)
	{"go.alloc_mb_per_op", "MiB/op"},
	{"go.gc_cpu_s_per_op", "s/op"},
	{"trace.overhead_pct", "%"},
}
