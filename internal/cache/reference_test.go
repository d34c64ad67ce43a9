package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refSetAssoc is the reference SetAssoc: the original layout with an
// explicit valid flag per way, "first invalid, else oldest" victim
// selection, and an LRU stamp on every hit. SetAssoc's packed layout
// (age 0 marks an invalid way, victim = first way of smallest age) must
// make exactly the same decisions.
type refSetAssoc struct {
	ways  int
	arr   []refWay
	stamp uint64
}

type refWay struct {
	line  Line
	age   uint64
	valid bool
}

func newRefSetAssoc(sets, ways int) *refSetAssoc {
	return &refSetAssoc{ways: ways, arr: make([]refWay, sets*ways)}
}

func (r *refSetAssoc) span(set int) []refWay { return r.arr[set*r.ways : (set+1)*r.ways] }

// find returns the way holding line in set, or -1.
func (r *refSetAssoc) find(set int, line Line) int {
	for i, w := range r.span(set) {
		if w.valid && w.line == line {
			return i
		}
	}
	return -1
}

func (r *refSetAssoc) lookup(set int, line Line) bool {
	i := r.find(set, line)
	if i >= 0 {
		r.stamp++
		r.span(set)[i].age = r.stamp
	}
	return i >= 0
}

func (r *refSetAssoc) insertWays(set int, line Line, lo, n int) (Line, bool) {
	ws := r.span(set)[lo : lo+n]
	victim := -1
	for i := range ws {
		if !ws[i].valid {
			victim = i
			break
		}
		if victim == -1 || ws[i].age < ws[victim].age {
			victim = i
		}
	}
	w := &ws[victim]
	ev, was := w.line, w.valid
	r.stamp++
	*w = refWay{line: line, age: r.stamp, valid: true}
	return ev, was
}

func (r *refSetAssoc) remove(set int, line Line) bool {
	i := r.find(set, line)
	if i >= 0 {
		r.span(set)[i].valid = false
	}
	return i >= 0
}

func (r *refSetAssoc) occupancy(set int) int {
	n := 0
	for _, w := range r.span(set) {
		if w.valid {
			n++
		}
	}
	return n
}

// TestSetAssocMatchesValidFlagReference drives SetAssoc and the
// valid-flag reference with one seeded stream of partitioned inserts,
// lookups, probes, removes, flushes, occupancy reads and resets. Every
// op must give the same answer, and after every op the touched set must
// hold the same lines in the same ways.
func TestSetAssocMatchesValidFlagReference(t *testing.T) {
	const sets, ways = 64, 8
	rng := rand.New(rand.NewPCG(0x16b, 0x3a7))
	c := NewSetAssoc(sets, ways)
	ref := newRefSetAssoc(sets, ways)
	var inserts, evictions, flushes, resets int
	for step := 0; step < 60000; step++ {
		set, l := rng.IntN(sets), Line(rng.IntN(24))
		switch op := rng.IntN(1000); {
		case op < 500:
			lo := rng.IntN(ways)
			n := 1 + rng.IntN(ways-lo)
			ev, was := c.InsertWays(set, l, lo, n)
			wantEv, wantWas := ref.insertWays(set, l, lo, n)
			if was != wantWas || (was && ev != wantEv) {
				t.Fatalf("step %d: InsertWays(%d, %d, %d, %d) evicted (%d,%v), reference (%d,%v)",
					step, set, l, lo, n, ev, was, wantEv, wantWas)
			}
			inserts++
			if was {
				evictions++
			}
		case op < 700:
			if got, want := c.Lookup(set, l), ref.lookup(set, l); got != want {
				t.Fatalf("step %d: Lookup(%d, %d) = %v, reference %v", step, set, l, got, want)
			}
		case op < 800:
			if got, want := c.Contains(set, l), ref.find(set, l) >= 0; got != want {
				t.Fatalf("step %d: Contains(%d, %d) = %v, reference %v", step, set, l, got, want)
			}
		case op < 960:
			if got, want := c.Remove(set, l), ref.remove(set, l); got != want {
				t.Fatalf("step %d: Remove(%d, %d) = %v, reference %v", step, set, l, got, want)
			}
		case op < 963:
			c.Flush()
			for i := range ref.arr {
				ref.arr[i].valid = false
			}
			flushes++
		case op >= 998:
			c.Reset()
			ref = newRefSetAssoc(sets, ways)
			resets++
		}
		if got, want := c.Occupancy(set), ref.occupancy(set); got != want {
			t.Fatalf("step %d: Occupancy(%d) = %d, reference %d", step, set, got, want)
		}
		for i, w := range c.span(set) {
			rw := ref.span(set)[i]
			if (w.age != 0) != rw.valid || (rw.valid && w.line != rw.line) {
				t.Fatalf("step %d: set %d way %d holds %+v, reference %+v", step, set, i, w, rw)
			}
		}
	}
	if evictions < 1000 || flushes < 100 || resets < 100 {
		t.Fatalf("stream too tame: %d inserts, %d evictions, %d flushes, %d resets",
			inserts, evictions, flushes, resets)
	}
}

// accessLookupThenRemove is CoreCaches.Access with the original LLC-hit
// sequence: the hit line is looked up (stamping its LRU age) and then
// removed in a second scan, and the home slice is rehashed per level.
func accessLookupThenRemove(cc *CoreCaches, d Domain, line Line) AccessResult {
	h := cc.h
	if cc.l1.Lookup(cc.L1SetOf(line), line) {
		return AccessResult{Level: LevelL1, Slice: h.SliceOf(d, line)}
	}
	if cc.l2.Lookup(cc.L2SetOf(line), line) {
		cc.fillL1(line)
		return AccessResult{Level: LevelL2, Slice: h.SliceOf(d, line)}
	}
	slice := h.SliceOf(d, line)
	if h.slices[slice].Lookup(h.LLCSetOf(d, line), line) {
		h.slices[h.SliceOf(d, line)].Remove(h.LLCSetOf(d, line), line)
		cc.fillL2(d, line)
		cc.fillL1(line)
		return AccessResult{Level: LevelLLC, Slice: slice}
	}
	for _, o := range h.cores {
		if o == cc {
			continue
		}
		if o.l2.Remove(o.L2SetOf(line), line) {
			o.l1.Remove(o.L1SetOf(line), line)
			cc.fillL2(d, line)
			cc.fillL1(line)
			return AccessResult{Level: LevelRemote, Slice: slice}
		}
	}
	cc.fillL2(d, line)
	cc.fillL1(line)
	return AccessResult{Level: LevelMem, Slice: slice}
}

// TestAccessMatchesLookupThenRemove runs one seeded stream of loads and
// flushes on two identical hierarchies, one through Access and one
// through the original lookup-then-remove LLC hit. Every load must be
// served at the same level from the same slice, the LLC statistics and
// eviction-watcher reports must agree, and every LLC way must end up
// holding the same line.
func TestAccessMatchesLookupThenRemove(t *testing.T) {
	geom := Geometry{L1Sets: 4, L1Ways: 2, L2Sets: 8, L2Ways: 4, LLCSets: 16, LLCWays: 6, Slices: 3}
	for _, tc := range []struct {
		name        string
		partitioned bool
	}{{"default-domain", false}, {"way-partitioned", true}} {
		t.Run(tc.name, func(t *testing.T) {
			type eviction struct {
				line  Line
				slice int
			}
			build := func() (*Hierarchy, []*CoreCaches, *[]eviction) {
				h := NewHierarchy(geom)
				cores := []*CoreCaches{h.NewCore()}
				if tc.partitioned {
					cores = append(cores, h.NewCore())
					h.SetDomainWays(1, WayRange{Lo: 2, N: 3})
				}
				var evs []eviction
				h.Watch(func(l Line, s int) { evs = append(evs, eviction{l, s}) })
				return h, cores, &evs
			}
			hA, coresA, evsA := build()
			hB, coresB, evsB := build()
			rng := rand.New(rand.NewPCG(0xacce55, 0x1ef7))
			llcHits := 0
			for step := 0; step < 50000; step++ {
				line := Line(rng.IntN(400))
				if rng.IntN(100) == 0 {
					if a, b := hA.Flush(line), hB.Flush(line); a != b {
						t.Fatalf("step %d: Flush(%d) = %v, reference %v", step, line, a, b)
					}
					continue
				}
				core := rng.IntN(len(coresA))
				d := Domain(core)
				got := coresA[core].Access(d, line)
				want := accessLookupThenRemove(coresB[core], d, line)
				if got != want {
					t.Fatalf("step %d: core %d Access(%d) = %+v, reference %+v", step, core, line, got, want)
				}
				if got.Level == LevelLLC {
					llcHits++
				}
				gi, ge := hA.Stats()
				wi, we := hB.Stats()
				if gi != wi || ge != we {
					t.Fatalf("step %d: Stats() = (%d, %d), reference (%d, %d)", step, gi, ge, wi, we)
				}
			}
			if !slices.Equal(*evsA, *evsB) {
				t.Fatalf("eviction watchers diverge: %d vs %d reports", len(*evsA), len(*evsB))
			}
			for s := range hA.slices {
				for i, w := range hA.slices[s].arr {
					rw := hB.slices[s].arr[i]
					if (w.age != 0) != (rw.age != 0) || (w.age != 0 && w.line != rw.line) {
						t.Fatalf("slice %d way %d holds %+v, reference %+v", s, i, w, rw)
					}
				}
			}
			if llcHits < 1000 || len(*evsA) < 1000 {
				t.Fatalf("stream too tame: %d LLC hits, %d LLC evictions", llcHits, len(*evsA))
			}
		})
	}
}
