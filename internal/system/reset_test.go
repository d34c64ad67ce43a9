package system_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// runSignature exercises a machine through a representative mixed load —
// traffic threads, a stalling thread, a timed measurement probe, an extra
// engine sampler — and folds everything observable into one string:
// measured latencies, governor trajectory, MSR counters, cache and mesh
// statistics, and a draw from a labelled random stream. Two machines in
// identical state produce identical signatures bit for bit.
func runSignature(t *testing.T, m *system.Machine) string {
	t.Helper()
	for c := 0; c < 4; c++ {
		slice, ok := m.Socket(0).Die.SliceAtHops(c, 1)
		if !ok {
			slice, _ = m.Socket(0).Die.SliceAtHops(c, 0)
		}
		m.Spawn("sig-traffic", 0, c, 0, &workload.Traffic{Slice: slice})
	}
	slice, _ := m.Socket(0).Die.SliceAtHops(8, 0)
	m.Spawn("sig-stall", 0, 8, 0, &workload.Stalling{Slice: slice})
	lines, err := memsys.EvictionList(m.Socket(0).Hier, 0, memsys.NewAllocator(), 10, slice, 20)
	if err != nil {
		t.Fatal(err)
	}
	var lats []float64
	probe := &workload.Measure{
		Lines:      lines,
		PerQuantum: 8,
		Sink:       func(_ sim.Time, cycles float64) { lats = append(lats, cycles) },
	}
	m.Spawn("sig-probe", 0, 9, 0, probe)

	var freqs []sim.Freq
	m.Engine().Add(&sim.Ticker{
		Name:     "sig-sampler",
		Period:   m.Config().UFS.Epoch,
		Priority: 100,
		Fn:       func(sim.Time) { freqs = append(freqs, m.Socket(0).Uncore()) },
	})
	m.Run(80 * sim.Millisecond)

	ins, evs := m.Socket(0).Hier.Stats()
	return fmt.Sprintf("steps=%d now=%v lat=%v freqs=%v uclk=%d/%d llc=%d/%d flithops=%v peer=%v rand=%d",
		m.Engine().Steps(), m.Now(), lats, freqs,
		m.Socket(0).MSR.Uclk(), m.Socket(1).MSR.Uclk(),
		ins, evs, m.Socket(0).Mesh.TotalFlitHops(),
		m.Socket(1).Uncore(), m.Rand(0xabc).Uint64())
}

// dirtyCaches walks eviction lists over every LLC slice from core 12 of
// each socket, leaving lines in many L1, L2 and LLC sets, so a following
// Reset has far more than the signature run's few sets to clear. Each
// slice's lists come from a fresh allocator starting at L2 set 10, so on
// socket 0 they include the signature probe's own lines: any line a Reset
// left behind would turn the probe's misses into LLC hits or snoops.
func dirtyCaches(t *testing.T, m *system.Machine) {
	t.Helper()
	for s, sock := range m.Sockets() {
		var lines []cache.Line
		for slice := 0; slice < sock.Die.NumSlices(); slice++ {
			lists, err := memsys.EvictionLists(sock.Hier, 0, memsys.NewAllocator(), 10, slice, 24, 20)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range lists {
				lines = append(lines, l...)
			}
		}
		m.Spawn(fmt.Sprintf("dirty-probe-%d", s), s, 12, 0, &workload.Measure{Lines: lines, PerQuantum: 256})
	}
	m.Run(40 * sim.Millisecond)
}

// TestResetReplaysNew is the pooling contract: a machine Reset to a seed
// must be bit-for-bit indistinguishable from New at that seed, including
// the machine-derived random streams, after arbitrary prior use.
func TestResetReplaysNew(t *testing.T) {
	cfg := system.DefaultConfig()
	cfg.Seed = 0x1111

	fresh := runSignature(t, system.New(cfg))

	// Dirty a machine at a different seed, then reset it to cfg.Seed.
	dirty := system.New(system.DefaultConfig())
	_ = runSignature(t, dirty)
	dirty.SetFaults(nil)
	dirtyCaches(t, dirty)
	dirty.Socket(0).Hier.SetIndexFn(func(_ cache.Domain, _ cache.Line, _ int) int { return 0 })
	dirty.Reset(cfg.Seed)
	if got := runSignature(t, dirty); got != fresh {
		t.Errorf("reset machine diverges from fresh machine:\nfresh: %s\nreset: %s", fresh, got)
	}

	// Reset must also be repeatable: same seed, same run, again.
	dirtyCaches(t, dirty)
	dirty.Reset(cfg.Seed)
	if got := runSignature(t, dirty); got != fresh {
		t.Errorf("second reset diverges from fresh machine:\nfresh: %s\nreset: %s", fresh, got)
	}
}

// TestPoolRecyclesDeterministically checks Pool.Get hands back recycled
// machines that behave exactly like fresh ones, and that a nil pool
// degrades to plain construction.
func TestPoolRecyclesDeterministically(t *testing.T) {
	cfg := system.DefaultConfig()
	cfg.Seed = 0x2222
	fresh := runSignature(t, system.New(cfg))

	pool := &system.Pool{}
	first := pool.Get(cfg)
	if got := runSignature(t, first); got != fresh {
		t.Fatalf("pool.Get on empty pool diverges from New:\nfresh: %s\ngot:   %s", fresh, got)
	}
	pool.Put(first)
	if pool.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", pool.Size())
	}
	second := pool.Get(cfg)
	if second != first {
		t.Error("pool built a fresh machine instead of recycling")
	}
	if got := runSignature(t, second); got != fresh {
		t.Errorf("recycled machine diverges from fresh machine:\nfresh: %s\ngot:   %s", fresh, got)
	}

	// An incompatible config must not be served by the recycled machine.
	pool.Put(second)
	other := cfg
	other.Quantum = cfg.Quantum * 2
	other.UFS.Epoch = cfg.UFS.Epoch * 2
	if m := pool.Get(other); m == second {
		t.Error("pool recycled a machine across incompatible configs")
	}

	var nilPool *system.Pool
	if m := nilPool.Get(cfg); m == nil {
		t.Error("nil pool Get returned nil")
	}
	nilPool.Put(nil) // must not panic
}
