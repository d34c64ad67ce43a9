package cache

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetAssocLRU(t *testing.T) {
	c := NewSetAssoc(2, 2)
	c.Insert(0, 10)
	c.Insert(0, 20)
	if !c.Lookup(0, 10) || !c.Lookup(0, 20) {
		t.Fatal("inserted lines not found")
	}
	// Touch 10 so 20 becomes LRU, then insert: 20 must be evicted.
	c.Lookup(0, 10)
	ev, was := c.Insert(0, 30)
	if !was || ev != 20 {
		t.Errorf("evicted %d,%v, want 20", ev, was)
	}
	if c.Lookup(0, 20) {
		t.Error("evicted line still present")
	}
}

func TestSetAssocSequentialThrash(t *testing.T) {
	// The eviction-list property (§3.1): walking W+k lines of one set
	// in fixed rotation, with true LRU, every access misses.
	c := NewSetAssoc(1, 16)
	lines := make([]Line, 20)
	for i := range lines {
		lines[i] = Line(100 + i)
	}
	// Warm up one pass.
	for _, l := range lines {
		if !c.Lookup(0, l) {
			c.Insert(0, l)
		}
	}
	// Every subsequent rotation access must miss.
	for round := 0; round < 3; round++ {
		for _, l := range lines {
			if c.Lookup(0, l) {
				t.Fatalf("line %d hit during rotation; LRU broken", l)
			}
			c.Insert(0, l)
		}
	}
}

func TestSetAssocWayPartition(t *testing.T) {
	c := NewSetAssoc(1, 4)
	// Domain A owns ways 0-1, domain B ways 2-3.
	c.InsertWays(0, 1, 0, 2)
	c.InsertWays(0, 2, 0, 2)
	c.InsertWays(0, 3, 2, 2)
	c.InsertWays(0, 4, 2, 2)
	// A's next insert may only evict A's lines.
	ev, was := c.InsertWays(0, 5, 0, 2)
	if !was || (ev != 1 && ev != 2) {
		t.Errorf("way-partitioned insert evicted %d, want 1 or 2", ev)
	}
	if !c.Contains(0, 3) || !c.Contains(0, 4) {
		t.Error("domain B's lines were evicted by domain A")
	}
}

func TestSetAssocRemoveAndOccupancy(t *testing.T) {
	c := NewSetAssoc(2, 4)
	c.Insert(1, 7)
	if c.Occupancy(1) != 1 || c.Occupancy(0) != 0 {
		t.Error("occupancy wrong after insert")
	}
	if !c.Remove(1, 7) {
		t.Error("remove failed")
	}
	if c.Remove(1, 7) {
		t.Error("double remove succeeded")
	}
	c.Insert(0, 9)
	c.Flush()
	if c.Occupancy(0) != 0 {
		t.Error("flush left lines behind")
	}
}

func TestSetAssocContainsDoesNotTouchLRU(t *testing.T) {
	c := NewSetAssoc(1, 2)
	c.Insert(0, 1)
	c.Insert(0, 2)
	// Contains(1) must not refresh line 1.
	c.Contains(0, 1)
	ev, _ := c.Insert(0, 3)
	if ev != 1 {
		t.Errorf("evicted %d, want the untouched LRU line 1", ev)
	}
}

func TestSetAssocGeometryValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewSetAssoc(3, 4) },  // non-power-of-two sets
		func() { NewSetAssoc(4, 0) },  // zero ways
		func() { NewSetAssoc(-4, 4) }, // negative
		func() { NewSetAssoc(4, 17) }, // more ways than an order word holds
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			bad()
		}()
	}
}

func TestXORFoldHashUniformity(t *testing.T) {
	h := NewXORFoldHash(16)
	counts := make([]int, 16)
	const n = 1 << 14
	for l := Line(0); l < n; l++ {
		s := h.Slice(l)
		if s < 0 || s >= 16 {
			t.Fatalf("slice %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < n/16*8/10 || c > n/16*12/10 {
			t.Errorf("slice %d holds %d/%d lines; hash badly skewed", s, c, n)
		}
	}
}

func TestSubsetHashConfinesDomain(t *testing.T) {
	base := NewXORFoldHash(16)
	sub := NewSubsetHash(base, []int{0, 1, 2, 3})
	for l := Line(0); l < 4096; l++ {
		if s := sub.Slice(l); s > 3 {
			t.Fatalf("subset hash produced slice %d", s)
		}
	}
	if sub.Slices() != 16 {
		t.Error("subset hash changed slice numbering")
	}
}

func TestHierarchyAccessLevels(t *testing.T) {
	h := NewHierarchy(DefaultGeometry(16))
	cc := h.NewCore()
	l := Line(12345)
	if got := cc.Access(0, l); got.Level != LevelMem {
		t.Fatalf("cold access = %v, want MEM", got.Level)
	}
	if got := cc.Access(0, l); got.Level != LevelL1 {
		t.Fatalf("immediate re-access = %v, want L1", got.Level)
	}
}

func TestHierarchyNonInclusiveVictimPath(t *testing.T) {
	// A line evicted from the L2 must appear in the LLC, and an LLC
	// hit must move it back out of the LLC (victim-cache behaviour).
	h := NewHierarchy(DefaultGeometry(16))
	cc := h.NewCore()
	geom := h.Geometry()
	target := Line(1 << 15)
	cc.Access(0, target)
	if h.LLCContains(0, target) {
		t.Fatal("memory fill allocated into the LLC (should be non-inclusive)")
	}
	// Thrash the target's L2 set to evict it.
	for k := 1; k <= geom.L2Ways+2; k++ {
		cc.Access(0, target+Line(k*geom.L2Sets))
	}
	if !h.LLCContains(0, target) {
		t.Fatal("L2 victim did not spill into the LLC")
	}
	if cc.InL2(target) {
		t.Fatal("evicted line still in L2")
	}
	res := cc.Access(0, target)
	if res.Level != LevelLLC {
		t.Fatalf("access after spill = %v, want LLC", res.Level)
	}
	if h.LLCContains(0, target) {
		t.Error("LLC hit left the line in the LLC (non-inclusive promote should remove)")
	}
}

func TestHierarchyL2InclusiveOfL1(t *testing.T) {
	h := NewHierarchy(DefaultGeometry(16))
	cc := h.NewCore()
	geom := h.Geometry()
	target := Line(777)
	cc.Access(0, target)
	if !cc.InL1(target) {
		t.Fatal("line not in L1 after access")
	}
	for k := 1; k <= geom.L2Ways+2; k++ {
		cc.Access(0, target+Line(k*geom.L2Sets))
	}
	if cc.InL1(target) {
		t.Error("L2 eviction did not back-invalidate L1 (L2 is inclusive)")
	}
}

func TestHierarchyRemoteSnoop(t *testing.T) {
	// Flush+Reload's fast path: a line resident in another core's
	// private cache is served by a directory snoop, not memory.
	h := NewHierarchy(DefaultGeometry(16))
	a := h.NewCore()
	b := h.NewCore()
	l := Line(4242)
	a.Access(0, l)
	res := b.Access(0, l)
	if res.Level != LevelRemote {
		t.Fatalf("cross-core access = %v, want REMOTE", res.Level)
	}
	if a.InL2(l) || a.InL1(l) {
		t.Error("snooped line still in the source core's caches")
	}
}

func TestHierarchyFlushEverywhere(t *testing.T) {
	h := NewHierarchy(DefaultGeometry(16))
	a, b := h.NewCore(), h.NewCore()
	l := Line(999)
	a.Access(0, l)
	b.Access(0, l) // moves it to b
	if !h.Flush(l) {
		t.Fatal("flush found nothing")
	}
	if h.Flush(l) {
		t.Error("second flush still found the line")
	}
	if got := a.Access(0, l); got.Level != LevelMem {
		t.Errorf("access after flush = %v, want MEM", got.Level)
	}
}

func TestKeyedIndexSeparatesDomains(t *testing.T) {
	idx := KeyedIndex(map[Domain]uint64{1: 0xAA, 2: 0xBB})
	same, n := 0, 4096
	for l := Line(0); l < Line(n); l++ {
		if idx(1, l, 2048) == idx(2, l, 2048) {
			same++
		}
	}
	// Two keyed domains agree only by chance (~1/2048).
	if same > n/256 {
		t.Errorf("domains agree on %d/%d set indices; keys ineffective", same, n)
	}
	// Unkeyed domains use hardware indexing.
	if idx(0, 0x1555, 2048) != LowBitsIndex(0, 0x1555, 2048) {
		t.Error("unkeyed domain not using hardware indexing")
	}
}

func TestKeyedIndexInRangeQuick(t *testing.T) {
	idx := KeyedIndex(map[Domain]uint64{1: 0xFEED})
	f := func(l uint64) bool {
		s := idx(1, Line(l), 2048)
		return s >= 0 && s < 2048
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransactionAbortOnEviction(t *testing.T) {
	h := NewHierarchy(DefaultGeometry(16))
	cc := h.NewCore()
	geom := h.Geometry()
	txn := NewTransaction(h)

	// Park a line in the LLC and track it.
	target := Line(1 << 14)
	cc.Access(0, target)
	for k := 1; k <= geom.L2Ways+2; k++ {
		cc.Access(0, target+Line(k*geom.L2Sets))
	}
	if !h.LLCContains(0, target) {
		t.Fatal("target not parked in LLC")
	}
	txn.Begin()
	txn.Track(target)
	if txn.Aborted() {
		t.Fatal("aborted before any eviction")
	}

	// Fill the target's LLC set from another core until it is evicted.
	other := h.NewCore()
	slice, set := h.SliceOf(0, target), h.LLCSetOf(0, target)
	inserted := 0
	for l := Line(1 << 20); inserted < 3*geom.LLCWays; l++ {
		if h.SliceOf(0, l) == slice && h.LLCSetOf(0, l) == set {
			// Spill it via the other core's L2.
			other.Access(0, l)
			for k := 1; k <= geom.L2Ways+2; k++ {
				other.Access(0, l+Line(k*geom.L2Sets)*131)
			}
			inserted++
		}
	}
	if !txn.End() {
		t.Error("conflict eviction did not abort the transaction")
	}
	if txn.Aborts() == 0 {
		t.Error("abort counter not incremented")
	}
}

func TestTransactionResetPerRound(t *testing.T) {
	h := NewHierarchy(DefaultGeometry(16))
	txn := NewTransaction(h)
	txn.Begin()
	txn.Track(1)
	txn.End()
	txn.Begin()
	if txn.Aborted() {
		t.Error("abort state leaked across Begin")
	}
	// Tracking while inactive is a no-op.
	txn.End()
	txn.Track(2)
}

func TestLevelStrings(t *testing.T) {
	for l, want := range map[Level]string{
		LevelL1: "L1", LevelL2: "L2", LevelLLC: "LLC",
		LevelRemote: "REMOTE", LevelMem: "MEM",
	} {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(l), l.String(), want)
		}
	}
}

// refLRU is a reference LRU model: a slice ordered most-recent-first.
type refLRU struct {
	ways  int
	lines []Line
}

// access touches l, returning whether it hit and what was evicted.
func (r *refLRU) access(l Line) (hit bool, evicted Line, was bool) {
	for i, x := range r.lines {
		if x == l {
			copy(r.lines[1:i+1], r.lines[:i])
			r.lines[0] = l
			return true, 0, false
		}
	}
	r.lines = append([]Line{l}, r.lines...)
	if len(r.lines) > r.ways {
		evicted = r.lines[len(r.lines)-1]
		r.lines = r.lines[:len(r.lines)-1]
		return false, evicted, true
	}
	return false, 0, false
}

// TestSetAssocMatchesReferenceLRU drives one set with a pseudo-random
// access stream and cross-checks hits and evictions against the reference
// model.
func TestSetAssocMatchesReferenceLRU(t *testing.T) {
	c := NewSetAssoc(1, 8)
	ref := &refLRU{ways: 8}
	state := uint64(0x9e3779b97f4a7c15)
	for step := 0; step < 20000; step++ {
		state = state*6364136223846793005 + 1442695040888963407
		l := Line(state>>40%24) + 1
		hit := c.Lookup(0, l)
		wantHit, wantEv, wantWas := ref.access(l)
		if hit != wantHit {
			t.Fatalf("step %d line %d: hit=%v, reference says %v", step, l, hit, wantHit)
		}
		if hit {
			continue
		}
		ev, was := c.Insert(0, l)
		if was != wantWas || (was && ev != wantEv) {
			t.Fatalf("step %d: eviction (%d,%v), reference (%d,%v)", step, ev, was, wantEv, wantWas)
		}
	}
}

// TestSetAssocResetReplaysFresh pins the dirty-set Reset: a seeded
// stream of partitioned inserts, lookups, removes, flushes and resets runs
// on one long-lived array and, segment by segment, on a freshly built one
// that replaces it at every Reset. After each Reset the array must hold
// zero tags and valid masks, every order word must be the identity, and
// no set may still be marked; between resets it must match the fresh
// array's hits, evictions, tags, order words and valid masks op for op.
// It runs at every geometry of testGeoms.
func TestSetAssocResetReplaysFresh(t *testing.T) {
	for _, g := range testGeoms {
		t.Run(fmt.Sprintf("ways=%d", g.ways), func(t *testing.T) {
			sets, ways := g.sets, g.ways
			rng := rand.New(rand.NewPCG(0x5e7a55, 0xd1e7))
			c := NewSetAssoc(sets, ways)
			fresh := NewSetAssoc(sets, ways)
			resets := 0
			for step := 0; step < 40000; step++ {
				set, l := rng.IntN(sets), Line(rng.IntN(24))
				switch op := rng.IntN(1000); {
				case op < 500:
					lo := rng.IntN(ways)
					n := 1 + rng.IntN(ways-lo)
					ev, was := c.InsertWays(set, l, lo, n)
					wantEv, wantWas := fresh.InsertWays(set, l, lo, n)
					if ev != wantEv || was != wantWas {
						t.Fatalf("step %d: InsertWays(%d, %d, %d, %d) evicted (%d,%v), fresh (%d,%v)",
							step, set, l, lo, n, ev, was, wantEv, wantWas)
					}
				case op < 800:
					if got, want := c.Lookup(set, l), fresh.Lookup(set, l); got != want {
						t.Fatalf("step %d: Lookup(%d, %d) = %v, fresh %v", step, set, l, got, want)
					}
				case op < 990:
					if got, want := c.Remove(set, l), fresh.Remove(set, l); got != want {
						t.Fatalf("step %d: Remove(%d, %d) = %v, fresh %v", step, set, l, got, want)
					}
				case op < 995:
					c.Flush()
					fresh.Flush()
				default:
					c.Reset()
					fresh = NewSetAssoc(sets, ways)
					resets++
					for i, tag := range c.tags {
						if tag != 0 {
							t.Fatalf("step %d: way %d of set %d holds tag %d after Reset", step, i%ways, i/ways, tag)
						}
					}
					for s := range sets {
						if c.valid[s] != 0 || c.order[s] != identity(ways) {
							t.Fatalf("step %d: set %d has valid %#x order %#x after Reset, want 0 and %#x",
								step, s, c.valid[s], c.order[s], identity(ways))
						}
					}
					if len(c.dirtyList) != 0 || slices.Contains(c.dirty, true) {
						t.Fatalf("step %d: %d sets still listed dirty after Reset", step, len(c.dirtyList))
					}
				}
				if !slices.Equal(c.tags, fresh.tags) || !slices.Equal(c.order, fresh.order) ||
					!slices.Equal(c.valid, fresh.valid) {
					t.Fatalf("step %d: array diverges from a fresh one replaying the same ops", step)
				}
			}
			if resets < 100 {
				t.Fatalf("stream exercised only %d resets", resets)
			}
		})
	}
}

// TestHierarchyFootprint bounds the memory of one socket's cache arrays:
// what NewHierarchy(DefaultGeometry(16)) and 16 NewCore calls allocate,
// spread over every L1, L2 and LLC way, must stay at most 10 bytes a way
// (an 8-byte tag, plus each set's order word, valid mask and dirty marks).
func TestHierarchyFootprint(t *testing.T) {
	const cores = 16
	geom := DefaultGeometry(16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewHierarchy(geom)
	for range cores {
		h.NewCore()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	ways := geom.Slices*geom.LLCSets*geom.LLCWays + cores*(geom.L1Sets*geom.L1Ways+geom.L2Sets*geom.L2Ways)
	bytes := after.TotalAlloc - before.TotalAlloc
	if perWay := float64(bytes) / float64(ways); perWay > 10 {
		t.Fatalf("%d bytes for %d ways: %.2f B/way, want at most 10", bytes, ways, perWay)
	} else {
		t.Logf("%d bytes for %d ways: %.2f B/way", bytes, ways, perWay)
	}
}
