// Package cache implements the functional cache hierarchy of the evaluation
// platform (Table 1): private 8-way 32 KiB L1s, private inclusive 16-way
// 1 MiB L2s, and a shared non-inclusive 11-way sliced LLC distributed over
// the mesh tiles. It provides the primitives the paper's workloads are
// built from: eviction lists that bypass the L2 (Listing 1), pointer-chase
// lists (Listing 2), timed loads (Listing 3), clflush, and the defensive
// variants (randomized indexing, way/slice partitioning) evaluated in
// Table 3.
//
// The package is purely functional: it decides hit levels and evictions.
// Latency is assigned by internal/timing from the hit level, the mesh hop
// count, and the current uncore frequency.
package cache

import "fmt"

// LineSize is the cache line size in bytes.
const LineSize = 64

// Line is a physical cache-line address (the physical byte address shifted
// right by 6).
type Line uint64

// way is one cache way: the resident line and its LRU stamp, 16 bytes,
// kept together so a set lookup walks one contiguous array. An age of
// zero marks the way invalid: the array's stamp is incremented before
// every store, so a valid way's age is at least 1. An invalid way may
// still hold a stale line; every scan tests the age, not the line.
type way struct {
	line Line
	age  uint64
}

// SetAssoc is one set-associative cache array with true-LRU replacement.
// Insertion can be restricted to a way range, which is how way-partitioning
// defences are expressed. Each set's ways are contiguous in memory; every
// operation is a single pass over that span and allocates nothing.
//
// Valid ages are unique and invalid ways have age 0, so the replacement
// victim — the first invalid way, else the least recently used — is simply
// the first way of smallest age.
//
// Only InsertWays ever makes a way valid (Lookup re-stamps ways that are
// already valid; Remove and Flush only zero the age), so a set never
// inserted into since the last Reset is still all-zero. The array
// records each set the first time InsertWays writes it, and Reset clears
// just those: its cost scales with the sets touched, not the array size.
type SetAssoc struct {
	sets  int
	ways  int
	arr   []way
	stamp uint64
	// dirty marks the sets written since the last Reset; dirtyList holds
	// their indices in first-write order. Both are sized in NewSetAssoc,
	// so marking never allocates.
	dirty     []bool
	dirtyList []int32
}

// NewSetAssoc returns a cache array with the given geometry. sets must be a
// power of two (hardware indexes with address bits).
func NewSetAssoc(sets, ways int) *SetAssoc {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: non-positive way count %d", ways))
	}
	return &SetAssoc{
		sets:      sets,
		ways:      ways,
		arr:       make([]way, sets*ways),
		dirty:     make([]bool, sets),
		dirtyList: make([]int32, 0, sets),
	}
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

func (c *SetAssoc) checkSet(set int) {
	if set < 0 || set >= c.sets {
		panic(fmt.Sprintf("cache: set %d out of range [0,%d)", set, c.sets))
	}
}

// span returns the contiguous way array of set.
func (c *SetAssoc) span(set int) []way {
	base := set * c.ways
	return c.arr[base : base+c.ways]
}

// Lookup reports whether line is present in set, updating LRU state on a
// hit.
func (c *SetAssoc) Lookup(set int, line Line) bool {
	c.checkSet(set)
	ws := c.span(set)
	for i := range ws {
		if ws[i].line == line && ws[i].age != 0 {
			c.stamp++
			ws[i].age = c.stamp
			return true
		}
	}
	return false
}

// Contains reports presence without touching LRU state (a probe, not an
// access).
func (c *SetAssoc) Contains(set int, line Line) bool {
	c.checkSet(set)
	ws := c.span(set)
	for i := range ws {
		if ws[i].line == line && ws[i].age != 0 {
			return true
		}
	}
	return false
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
	c.checkSet(set)
	if wayLo < 0 || wayN <= 0 || wayLo+wayN > c.ways {
		panic(fmt.Sprintf("cache: way range [%d,%d) outside [0,%d)", wayLo, wayLo+wayN, c.ways))
	}
	ws := c.span(set)[wayLo : wayLo+wayN]
	// Strict < keeps the first way of the smallest age. Nothing beats an
	// invalid way's age of 0, so the scan stops at the first one.
	victim, oldest := 0, ws[0].age
	for i := 1; i < len(ws) && oldest != 0; i++ {
		if ws[i].age < oldest {
			victim, oldest = i, ws[i].age
		}
	}
	if !c.dirty[set] {
		c.dirty[set] = true
		c.dirtyList = append(c.dirtyList, int32(set))
	}
	w := &ws[victim]
	if w.age != 0 {
		evicted, wasEvicted = w.line, true
	}
	c.stamp++
	w.line = line
	w.age = c.stamp
	return evicted, wasEvicted
}

// Remove invalidates line in set if present, reporting whether it was.
func (c *SetAssoc) Remove(set int, line Line) bool {
	c.checkSet(set)
	ws := c.span(set)
	for i := range ws {
		if ws[i].line == line && ws[i].age != 0 {
			ws[i].age = 0
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines in set.
func (c *SetAssoc) Occupancy(set int) int {
	c.checkSet(set)
	n := 0
	for _, w := range c.span(set) {
		if w.age != 0 {
			n++
		}
	}
	return n
}

// Flush invalidates every line in the array.
func (c *SetAssoc) Flush() {
	for i := range c.arr {
		c.arr[i].age = 0
	}
}

// Reset returns the array to its just-constructed state: every way
// zeroed and the LRU stamp rewound to zero, so replacement decisions
// after a reset replay those of a fresh cache bit for bit. It clears only
// the sets inserted into since the last Reset; every other set is still
// all-zero (see SetAssoc), so the cost is O(sets written), not O(array).
func (c *SetAssoc) Reset() {
	for _, set := range c.dirtyList {
		clear(c.span(int(set)))
		c.dirty[set] = false
	}
	c.dirtyList = c.dirtyList[:0]
	c.stamp = 0
}
