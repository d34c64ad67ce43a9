package cache_test

// The per-access hot path. Each shape is a setup that returns one step:
// BenchmarkX loops the step, and TestZeroAlloc checks that it does not
// allocate.

import (
	"testing"

	"repro/internal/cache"
)

// benchLines returns n lines that all index L2 set `set` for the default
// geometry (stride of L2Sets keeps the low index bits fixed).
func benchLines(geom cache.Geometry, set, n int) []cache.Line {
	out := make([]cache.Line, n)
	for i := range out {
		out[i] = cache.Line(1<<20 | set | i*geom.L2Sets)
	}
	return out
}

// setAssocLookupHit is a hit in a warm set: the scan over the set's tags
// plus the move to the front of its recency order. The lines rotate, so
// every hit is on the least recently used way.
func setAssocLookupHit(tb testing.TB) func() {
	c := cache.NewSetAssoc(1024, 16)
	lines := benchLines(cache.DefaultGeometry(1), 3, 16)
	for _, l := range lines {
		c.Insert(3, l)
	}
	i := 0
	return func() {
		if !c.Lookup(3, lines[i%len(lines)]) {
			tb.Fatal("expected hit")
		}
		i++
	}
}

// setAssocInsertEvict is the miss path: inserting into a full set, which
// forces an LRU victim pick and an eviction every call.
func setAssocInsertEvict(tb testing.TB) func() {
	c := cache.NewSetAssoc(1024, 16)
	lines := benchLines(cache.DefaultGeometry(1), 3, 64)
	for _, l := range lines[:16] {
		c.Insert(3, l)
	}
	i := 0
	return func() {
		if _, evicted := c.Insert(3, lines[i%len(lines)]); !evicted {
			tb.Fatal("expected eviction from a full set")
		}
		i++
	}
}

// l1Hit is the shortest access path: a line resident in the L1.
func l1Hit(tb testing.TB) func() {
	h := cache.NewHierarchy(cache.DefaultGeometry(16))
	cc := h.NewCore()
	line := cache.Line(1 << 20)
	cc.Access(0, line)
	return func() {
		if res := cc.Access(0, line); res.Level != cache.LevelL1 {
			tb.Fatalf("expected L1 hit, got %v", res.Level)
		}
	}
}

// llcHit is the paper's eviction-list access pattern (Listing 1):
// rotating over more same-L2-set lines than the L2 holds, so every
// access misses the private caches and hits the LLC — the steady-state
// load of the sender and receiver loops.
func llcHit(testing.TB) func() {
	geom := cache.DefaultGeometry(16)
	h := cache.NewHierarchy(geom)
	cc := h.NewCore()
	lines := benchLines(geom, 5, geom.L2Ways+4)
	// Two warm-up rotations move the list into LLC steady state.
	for r := 0; r < 2; r++ {
		for _, l := range lines {
			cc.Access(0, l)
		}
	}
	i := 0
	return func() {
		cc.Access(0, lines[i%len(lines)])
		i++
	}
}

// flush is the clflush path of Flush+Reload: access a cached line, then
// invalidate it in every cache of the socket.
func flush(tb testing.TB) func() {
	h := cache.NewHierarchy(cache.DefaultGeometry(16))
	cc := h.NewCore()
	line := cache.Line(1 << 20)
	return func() {
		cc.Access(0, line)
		if !h.Flush(line) {
			tb.Fatal("expected the line to be present")
		}
	}
}

func TestZeroAlloc(t *testing.T) {
	for _, s := range []struct {
		name  string
		setup func(testing.TB) func()
	}{
		{"setassoc-lookup-hit", setAssocLookupHit},
		{"setassoc-insert-evict", setAssocInsertEvict},
		{"l1-hit", l1Hit},
		{"llc-hit", llcHit},
		{"flush", flush},
	} {
		t.Run(s.name, func(t *testing.T) {
			if a := testing.AllocsPerRun(100, s.setup(t)); a != 0 {
				t.Errorf("%s allocates %v times per step, want 0", s.name, a)
			}
		})
	}
}

// loop times setup's step.
func loop(b *testing.B, setup func(testing.TB) func()) {
	step := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkSetAssocLookupHit(b *testing.B)     { loop(b, setAssocLookupHit) }
func BenchmarkSetAssocInsertEvict(b *testing.B)   { loop(b, setAssocInsertEvict) }
func BenchmarkHierarchyAccessL1Hit(b *testing.B)  { loop(b, l1Hit) }
func BenchmarkHierarchyAccessLLCHit(b *testing.B) { loop(b, llcHit) }
func BenchmarkHierarchyFlush(b *testing.B)        { loop(b, flush) }
