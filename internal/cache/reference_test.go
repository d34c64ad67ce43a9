package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// refSetAssoc is the reference SetAssoc: the original layout with an
// explicit valid flag per way, "first invalid, else oldest" victim
// selection, and an LRU stamp on every hit. SetAssoc's packed layout
// (line+1 tags, a nibble recency order and a valid mask per set) must
// make exactly the same decisions and keep the same recency order.
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

// recency returns ref's valid ways of set by descending age: most
// recently used first.
func (r *refSetAssoc) recency(set int) []int {
	var ws []int
	for i, w := range r.span(set) {
		if w.valid {
			ws = append(ws, i)
		}
	}
	slices.SortFunc(ws, func(a, b int) int { return cmp.Compare(r.span(set)[b].age, r.span(set)[a].age) })
	return ws
}

// recency returns the valid prefix of set's order word: its valid ways,
// most recently used first.
func (c *SetAssoc) recency(set int) []int {
	ws := make([]int, bits.OnesCount16(c.valid[set]))
	for i := range ws {
		ws[i] = int(c.order[set] >> (4 * i) & 0xf)
	}
	return ws
}

// matchRef reports the first way in which set of c differs from the
// reference: its occupancy, a way's validity or line, an order word that
// is not a permutation of the ways (zero above them), or a recency order
// other than the reference's valid ways by descending age.
func matchRef(c *SetAssoc, ref *refSetAssoc, set int) error {
	if got, want := c.Occupancy(set), ref.occupancy(set); got != want {
		return fmt.Errorf("Occupancy(%d) = %d, reference %d", set, got, want)
	}
	for w, rw := range ref.span(set) {
		tag, bit := c.tags[set*c.ways+w], c.valid[set]>>w&1 != 0
		if (tag != 0) != rw.valid || bit != rw.valid || (rw.valid && Line(tag-1) != rw.line) {
			return fmt.Errorf("set %d way %d holds tag %d valid %v, reference %+v", set, w, tag, bit, rw)
		}
	}
	o, seen := c.order[set], 0
	for i := range c.ways {
		seen |= 1 << (o >> (4 * i) & 0xf)
	}
	if seen != 1<<c.ways-1 || o>>(4*c.ways-4)>>4 != 0 {
		return fmt.Errorf("set %d order word %#x is not a permutation of %d ways", set, o, c.ways)
	}
	if got, want := c.recency(set), ref.recency(set); !slices.Equal(got, want) {
		return fmt.Errorf("set %d recency %v, reference %v", set, got, want)
	}
	return nil
}

// setOp is one operation of a differential stream against refSetAssoc.
type setOp struct {
	kind  byte // one of the op* constants
	set   int
	line  Line
	lo, n int // InsertWays' way range
}

const (
	opInsert = iota
	opLookup
	opContains
	opRemove
	opFlush
	opReset
	opOccupancy // no call of its own: apply reads Occupancy after every op
)

// refPair runs one SetAssoc and the valid-flag reference side by side.
type refPair struct {
	c   *SetAssoc
	ref *refSetAssoc
}

func newRefPair(sets, ways int) *refPair {
	return &refPair{NewSetAssoc(sets, ways), newRefSetAssoc(sets, ways)}
}

// apply runs op on both arrays. It reports whether an insert evicted,
// and the first disagreement: a different answer, then a different state
// of op's set (of every set after a flush or reset, where a reset array
// must also equal a freshly built one word for word).
func (p *refPair) apply(op setOp) (evicted bool, err error) {
	c, ref, set, l := p.c, p.ref, op.set, op.line
	switch op.kind {
	case opInsert:
		ev, was := c.InsertWays(set, l, op.lo, op.n)
		wantEv, wantWas := ref.insertWays(set, l, op.lo, op.n)
		if was != wantWas || (was && ev != wantEv) {
			return false, fmt.Errorf("InsertWays(%d, %d, %d, %d) evicted (%d,%v), reference (%d,%v)",
				set, l, op.lo, op.n, ev, was, wantEv, wantWas)
		}
		evicted = was
	case opLookup:
		if got, want := c.Lookup(set, l), ref.lookup(set, l); got != want {
			return false, fmt.Errorf("Lookup(%d, %d) = %v, reference %v", set, l, got, want)
		}
	case opContains:
		if got, want := c.Contains(set, l), ref.find(set, l) >= 0; got != want {
			return false, fmt.Errorf("Contains(%d, %d) = %v, reference %v", set, l, got, want)
		}
	case opRemove:
		if got, want := c.Remove(set, l), ref.remove(set, l); got != want {
			return false, fmt.Errorf("Remove(%d, %d) = %v, reference %v", set, l, got, want)
		}
	case opFlush:
		c.Flush()
		for i := range ref.arr {
			ref.arr[i].valid = false
		}
	case opReset:
		c.Reset()
		p.ref = newRefSetAssoc(c.sets, c.ways)
		if err := sameArrays(c, NewSetAssoc(c.sets, c.ways)); err != nil {
			return false, fmt.Errorf("after Reset: %v", err)
		}
	}
	if op.kind == opFlush || op.kind == opReset {
		for s := range c.sets {
			if err := matchRef(c, p.ref, s); err != nil {
				return evicted, err
			}
		}
		return evicted, nil
	}
	return evicted, matchRef(c, ref, set)
}

// sameArrays reports whether a and b differ in any tag, order word, valid
// mask or dirty mark.
func sameArrays(a, b *SetAssoc) error {
	switch {
	case !slices.Equal(a.tags, b.tags):
		return fmt.Errorf("tags differ")
	case !slices.Equal(a.order, b.order):
		return fmt.Errorf("order words differ")
	case !slices.Equal(a.valid, b.valid):
		return fmt.Errorf("valid masks differ")
	case !slices.Equal(a.dirty, b.dirty) || !slices.Equal(a.dirtyList, b.dirtyList):
		return fmt.Errorf("dirty sets differ: %v vs %v", a.dirtyList, b.dirtyList)
	}
	return nil
}

// testGeoms are the geometries the set-level tests run at: direct
// mapped, the L1's 8 ways, the LLC's 11, and the L2's 16, where a set's
// order word is full and a move of its last nibble shifts by 64. The wide
// ones get fewer sets, so that their sets still fill and evict between
// the seeded streams' flushes.
var testGeoms = []struct{ sets, ways int }{{64, 1}, {64, 8}, {16, 11}, {16, 16}}

// TestSetAssocMatchesValidFlagReference drives SetAssoc and the
// valid-flag reference with one seeded stream of partitioned inserts,
// lookups, probes, removes, flushes, occupancy reads and resets. Every
// op must give the same answer, and after every op the touched set must
// hold the same lines in the same ways, in the same recency order.
func TestSetAssocMatchesValidFlagReference(t *testing.T) {
	for _, g := range testGeoms {
		t.Run(fmt.Sprintf("ways=%d", g.ways), func(t *testing.T) {
			sets, ways := g.sets, g.ways
			rng := rand.New(rand.NewPCG(0x16b, 0x3a7))
			p := newRefPair(sets, ways)
			var inserts, evictions, flushes, resets int
			for step := 0; step < 60000; step++ {
				op := setOp{set: rng.IntN(sets), line: Line(rng.IntN(24))}
				switch r := rng.IntN(1000); {
				case r < 500:
					op.kind = opInsert
					op.lo = rng.IntN(ways)
					op.n = 1 + rng.IntN(ways-op.lo)
					inserts++
				case r < 700:
					op.kind = opLookup
				case r < 800:
					op.kind = opContains
				case r < 960:
					op.kind = opRemove
				case r < 963:
					op.kind = opFlush
					flushes++
				case r >= 998:
					op.kind = opReset
					resets++
				default:
					op.kind = opOccupancy
				}
				was, err := p.apply(op)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if was {
					evictions++
				}
			}
			if evictions < 1000 || flushes < 100 || resets < 100 {
				t.Fatalf("stream too tame: %d inserts, %d evictions, %d flushes, %d resets",
					inserts, evictions, flushes, resets)
			}
		})
	}
}

// fuzzKinds maps an op byte's low nibble to its kind, weighted towards
// inserts so that sets fill and evict.
var fuzzKinds = [16]byte{
	opInsert, opInsert, opInsert, opInsert, opInsert, opInsert,
	opLookup, opLookup, opLookup, opContains, opRemove, opRemove, opRemove,
	opFlush, opReset, opOccupancy,
}

// FuzzSetAssoc decodes bytes into a stream of SetAssoc operations at 1 to
// 16 ways and checks each against the valid-flag reference (see
// refPair.apply). The first byte picks the associativity; every op after
// it is three bytes: kind (low nibble, by fuzzKinds) and set, line, and
// way range (high nibble first way, low nibble width).
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{15, 0, 1, 0x0f, 0x10, 2, 0x0f, 6, 1, 0, 10, 2, 0, 13, 3, 0, 14, 0, 0})
	f.Add([]byte{10, 0, 1, 0x3a, 0, 2, 0x0a, 0, 3, 0x25, 7, 1, 0, 11, 2, 0, 15, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 6, 1, 0, 10, 2, 0, 14, 0, 0})
	for _, g := range testGeoms {
		seq := []byte{byte(g.ways - 1)}
		for i := range 300 {
			seq = append(seq, byte(i*7%13)|byte(i%3)<<4, byte(i*5%23), byte(i*11))
		}
		f.Add(seq)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const sets = 2
		ways := 1 + int(data[0])%16
		p := newRefPair(sets, ways)
		for i := 1; i+3 <= len(data); i += 3 {
			b := data[i : i+3]
			op := setOp{kind: fuzzKinds[b[0]&0xf], set: int(b[0]>>4) % sets, line: Line(b[1] % 40)}
			if op.kind == opInsert {
				op.lo = int(b[2]>>4) % ways
				op.n = 1 + int(b[2]&0xf)%(ways-op.lo)
			}
			if _, err := p.apply(op); err != nil {
				t.Fatalf("op %d %+v: %v", i/3, op, err)
			}
		}
	})
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
				a, b := hA.slices[s], hB.slices[s]
				for i, tag := range a.tags {
					if tag != b.tags[i] {
						t.Fatalf("slice %d way %d holds tag %d, reference %d", s, i, tag, b.tags[i])
					}
				}
				if !slices.Equal(a.valid, b.valid) || !slices.Equal(a.order, b.order) {
					t.Fatalf("slice %d valid masks or recency order differ from the reference", s)
				}
			}
			if llcHits < 1000 || len(*evsA) < 1000 {
				t.Fatalf("stream too tame: %d LLC hits, %d LLC evictions", llcHits, len(*evsA))
			}
		})
	}
}
