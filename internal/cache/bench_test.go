package cache_test

// Zero-allocation benchmarks for the per-access hot path. These back the
// regression gate in scripts/bench.sh: every benchmark here calls
// b.ReportAllocs, and the tagged ones must report 0 allocs/op.

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

// BenchmarkSetAssocLookupHit times a hit in a warm set: the scan over the
// set's tags plus the move to the front of its recency order. The lines
// rotate, so every hit is on the least recently used way.
func BenchmarkSetAssocLookupHit(b *testing.B) {
	c := cache.NewSetAssoc(1024, 16)
	lines := benchLines(cache.DefaultGeometry(1), 3, 16)
	for _, l := range lines {
		c.Insert(3, l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Lookup(3, lines[i%len(lines)]) {
			b.Fatal("expected hit")
		}
	}
}

// BenchmarkSetAssocInsertEvict times the miss path: inserting into a full
// set, which forces an LRU victim pick and an eviction every call.
func BenchmarkSetAssocInsertEvict(b *testing.B) {
	c := cache.NewSetAssoc(1024, 16)
	lines := benchLines(cache.DefaultGeometry(1), 3, 64)
	for _, l := range lines[:16] {
		c.Insert(3, l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, evicted := c.Insert(3, lines[i%len(lines)]); !evicted {
			b.Fatal("expected eviction from a full set")
		}
	}
}

// BenchmarkHierarchyAccessL1Hit times the shortest access path: a line
// resident in the L1.
func BenchmarkHierarchyAccessL1Hit(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultGeometry(16))
	cc := h.NewCore()
	line := cache.Line(1 << 20)
	cc.Access(0, line)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := cc.Access(0, line); res.Level != cache.LevelL1 {
			b.Fatalf("expected L1 hit, got %v", res.Level)
		}
	}
}

// BenchmarkHierarchyAccessLLCHit times the paper's eviction-list access
// pattern (Listing 1): rotating over more same-L2-set lines than the L2
// holds, so every access misses the private caches and hits the LLC —
// the steady-state load of the sender and receiver loops.
func BenchmarkHierarchyAccessLLCHit(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Access(0, lines[i%len(lines)])
	}
}

// BenchmarkHierarchyFlush times the clflush path of Flush+Reload: access
// a cached line, then invalidate it in every cache of the socket.
func BenchmarkHierarchyFlush(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultGeometry(16))
	cc := h.NewCore()
	line := cache.Line(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Access(0, line)
		if !h.Flush(line) {
			b.Fatal("expected the line to be present")
		}
	}
}
