// Package cache implements the functional cache hierarchy of the evaluation
// platform (Table 1): private 8-way 32 KiB L1s, private inclusive 16-way
// 1 MiB L2s, and a shared non-inclusive 11-way sliced LLC distributed over
// the mesh tiles. It provides the primitives the paper's workloads are
// built from: eviction lists that bypass the L2 (Listing 1), pointer-chase
// lists (Listing 2), timed loads (Listing 3), clflush, and the defensive
// variants (randomized indexing, way/slice partitioning) evaluated in
// Table 3.
//
// The package is purely functional: it decides hit levels and evictions,
// with exact true LRU over 8-byte tags and one packed recency word per
// set (see SetAssoc). Latency is assigned by internal/timing from the hit
// level, the mesh hop count, and the current uncore frequency.
package cache

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Line is a physical cache-line address (the physical byte address shifted
// right by 6).
type Line uint64

// SetAssoc is one set-associative cache array with true-LRU replacement.
// Insertion can be restricted to a way range, which is how way-partitioning
// defences are expressed. Every operation allocates nothing.
//
// Three dense arrays hold the state. tags has one word per way, line+1,
// so a zero tag is an invalid way and zeroed memory is an empty set; a
// lookup is an equality scan over a set's tags. order has one word per
// set: the way indices as 4-bit nibbles, most recently used first, valid
// ways before invalid ones. valid has one bit per way. A hit or an insert
// moves its way to the front; Remove and Flush only invalidate, and
// Remove moves the way to the back. The victim — the first invalid way,
// else the least recently used — is a trailing-zero count of the invalid
// mask, else the last valid nibble in the way range.
//
// A set index out of range panics with the runtime's bounds check.
//
// Only InsertWays ever makes a way valid, so a set never inserted into
// since the last Reset still holds zero tags and the identity order. The
// array records each set the first time InsertWays writes it, and Reset
// restores just those: its cost scales with the sets touched, not the
// array size.
type SetAssoc struct {
	sets  int
	ways  int
	tags  []uint64
	order []uint64
	valid []uint16
	// dirty marks the sets written since the last Reset; dirtyList holds
	// their indices in first-write order. Both are sized in NewSetAssoc,
	// so marking never allocates.
	dirty     []bool
	dirtyList []int32
}

// nibbles has a 1 in every nibble: the lane constant of the SWAR search
// over order words.
const nibbles = 0x1111111111111111

// identity is the order word listing ways 0..ways-1 by index.
func identity(ways int) uint64 {
	o := uint64(0)
	for w := ways - 1; w >= 0; w-- {
		o = o<<4 | uint64(w)
	}
	return o
}

// NewSetAssoc returns a cache array with the given geometry. sets must be a
// power of two (hardware indexes with address bits) and ways at most 16
// (one nibble per way in a set's order word).
func NewSetAssoc(sets, ways int) *SetAssoc {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", sets))
	}
	if ways <= 0 || ways > 16 {
		panic(fmt.Sprintf("cache: way count %d outside [1,16]", ways))
	}
	c := &SetAssoc{
		sets:      sets,
		ways:      ways,
		tags:      make([]uint64, sets*ways),
		order:     make([]uint64, sets),
		valid:     make([]uint16, sets),
		dirty:     make([]bool, sets),
		dirtyList: make([]int32, 0, sets),
	}
	id := identity(ways)
	for i := range c.order {
		c.order[i] = id
	}
	return c
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// find returns the way of set holding line, or -1.
func (c *SetAssoc) find(set int, line Line) int {
	tag, base := uint64(line)+1, set*c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// upTo returns the mask of the nibbles of order word o up to and
// including the first one equal to way w. The zero-nibble test of o^w
// marks that nibble's top bit lowest (a borrow only ever marks nibbles
// above the first zero one); that bit and every bit below it are the
// mask.
func upTo(o uint64, w int) uint64 {
	x := o ^ uint64(w)*nibbles
	z := (x - nibbles) &^ x & (nibbles << 3)
	return z ^ (z - 1)
}

// toFront moves way w, the last nibble under mask upto, to position 0.
func toFront(o, upto uint64, w int) uint64 {
	return o&^upto | o<<4&upto | uint64(w)
}

// Lookup reports whether line is present in set, updating LRU state on a
// hit. It moves nothing when the hit way is already the most recent.
func (c *SetAssoc) Lookup(set int, line Line) bool {
	w := c.find(set, line)
	if w < 0 {
		return false
	}
	if o := c.order[set]; o&0xf != uint64(w) {
		c.order[set] = toFront(o, upTo(o, w), w)
	}
	return true
}

// Contains reports presence without touching LRU state (a probe, not an
// access).
func (c *SetAssoc) Contains(set int, line Line) bool {
	return c.find(set, line) >= 0
}

// Insert places line into set, evicting the LRU line if the set is full.
// It returns the evicted line, if any. Insert does not check for prior
// presence; callers perform Lookup first.
func (c *SetAssoc) Insert(set int, line Line) (evicted Line, wasEvicted bool) {
	return c.InsertWays(set, line, 0, c.ways)
}

// InsertWays is Insert restricted to the way range [wayLo, wayLo+wayN):
// the victim is chosen only among those ways. This models way-partitioned
// caches, where a security domain may allocate only into its own ways.
func (c *SetAssoc) InsertWays(set int, line Line, wayLo, wayN int) (evicted Line, wasEvicted bool) {
	if wayLo < 0 || wayN <= 0 || wayLo+wayN > c.ways {
		panic(fmt.Sprintf("cache: way range [%d,%d) outside [0,%d)", wayLo, wayLo+wayN, c.ways))
	}
	o, v := c.order[set], uint32(c.valid[set])
	inRange := (uint32(1)<<wayN - 1) << wayLo
	var w int
	var upto uint64
	if free := inRange &^ v; free != 0 {
		w = bits.TrailingZeros32(free)
		upto = upTo(o, w)
	} else {
		// Every way in range is valid: walk up from the least recently
		// used valid way to the first one in range.
		sh := uint(bits.OnesCount32(v)-1) * 4
		for inRange>>(o>>(sh&63)&0xf)&1 == 0 {
			sh -= 4
		}
		w, upto = int(o>>(sh&63)&0xf), uint64(0x10)<<(sh&63)-1
		evicted, wasEvicted = Line(c.tags[set*c.ways+w]-1), true
	}
	if !c.dirty[set] {
		c.dirty[set] = true
		c.dirtyList = append(c.dirtyList, int32(set))
	}
	c.tags[set*c.ways+w] = uint64(line) + 1
	c.valid[set] = uint16(v | 1<<w)
	c.order[set] = toFront(o, upto, w)
	return evicted, wasEvicted
}

// Remove invalidates line in set if present, reporting whether it was.
// The way moves to the back of the order, behind the valid ways.
func (c *SetAssoc) Remove(set int, line Line) bool {
	w := c.find(set, line)
	if w < 0 {
		return false
	}
	c.tags[set*c.ways+w] = 0
	c.valid[set] &^= 1 << w
	o := c.order[set]
	below := upTo(o, w) >> 4
	c.order[set] = o&below | o>>4&^below | uint64(w)<<((4*c.ways-4)&63)
	return true
}

// Occupancy returns the number of valid lines in set.
func (c *SetAssoc) Occupancy(set int) int {
	return bits.OnesCount16(c.valid[set])
}

// Flush invalidates every line in the array. The order words keep their
// valid prefix, now empty, so they need no rewrite.
func (c *SetAssoc) Flush() {
	clear(c.tags)
	clear(c.valid)
}

// Reset returns the array to its just-constructed state: every tag and
// valid bit zeroed and every order word back to the identity, so
// replacement decisions after a reset replay those of a fresh cache bit
// for bit. It restores only the sets inserted into since the last Reset;
// every other set is untouched (see SetAssoc), so the cost is O(sets
// written), not O(array).
func (c *SetAssoc) Reset() {
	id := identity(c.ways)
	for _, set := range c.dirtyList {
		clear(c.tags[int(set)*c.ways : int(set+1)*c.ways])
		c.valid[set] = 0
		c.order[set] = id
		c.dirty[set] = false
	}
	c.dirtyList = c.dirtyList[:0]
}
