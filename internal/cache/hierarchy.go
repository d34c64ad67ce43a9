package cache

import "fmt"

// Level identifies where in the hierarchy an access was served.
type Level int

const (
	// LevelL1 is a private L1 hit.
	LevelL1 Level = iota
	// LevelL2 is a private L2 hit.
	LevelL2
	// LevelLLC is a hit in a shared last-level-cache slice.
	LevelLLC
	// LevelRemote is a miss in the LLC served by a snoop from another
	// core's private cache (the directory forward path of the
	// non-inclusive Skylake LLC). Flush+Reload observes this level:
	// after a flush, a line the sender re-touched lives in the sender's
	// L2, and the receiver's reload is served by a cross-core snoop —
	// much faster than memory.
	LevelRemote
	// LevelMem is a full miss served by a memory controller.
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelRemote:
		return "REMOTE"
	case LevelMem:
		return "MEM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Domain is a security domain identifier. Defences (randomized indexing,
// partitioning) key their behaviour on the accessing domain; with no
// defence installed all domains behave identically.
type Domain int

// AccessResult describes how a load was served.
type AccessResult struct {
	// Level is where the line was found (LevelMem if nowhere).
	Level Level
	// Slice is the LLC slice consulted (the line's home slice). It is
	// meaningful for LevelLLC and LevelMem, where the request travelled
	// the mesh.
	Slice int
}

// IndexFn maps a line to a set index inside its LLC slice. The default
// uses the low line-address bits like real hardware; the randomized-LLC
// defence substitutes a keyed permutation per domain.
type IndexFn func(domain Domain, line Line, sets int) int

// LowBitsIndex is the hardware-default set indexing.
func LowBitsIndex(_ Domain, line Line, sets int) int {
	return int(uint64(line) & uint64(sets-1))
}

// WayRange restricts a domain's LLC insertions to a way interval.
type WayRange struct {
	Lo, N int
}

// EvictionWatcher observes LLC conflict evictions; Prime+Abort's
// transactional tracking is built on it.
type EvictionWatcher func(line Line, slice int)

// Geometry describes the platform cache sizes. The zero value is not
// usable; call DefaultGeometry.
type Geometry struct {
	L1Sets, L1Ways   int
	L2Sets, L2Ways   int
	LLCSets, LLCWays int // per slice
	Slices           int
}

// DefaultGeometry returns the Xeon Gold 6142 hierarchy of Table 1:
// 32 KiB/8-way L1 (64 sets), 1 MiB/16-way inclusive L2 (1024 sets), and a
// 22 MiB 11-way non-inclusive LLC split into nslices slices of 2048 sets.
func DefaultGeometry(nslices int) Geometry {
	return Geometry{
		L1Sets: 64, L1Ways: 8,
		L2Sets: 1024, L2Ways: 16,
		LLCSets: 2048, LLCWays: 11,
		Slices: nslices,
	}
}

// Hierarchy is the shared part of the cache system: the sliced LLC plus the
// registry of per-core private caches (needed by clflush, which invalidates
// a line everywhere).
type Hierarchy struct {
	geom   Geometry
	slices []*SetAssoc
	cores  []*CoreCaches

	// defaultHash is the slice hash of every domain without an entry in
	// domainHash. It is held as the concrete type so the common path (no
	// per-domain hash installed) hashes without interface dispatch.
	defaultHash XORFoldHash
	domainHash  map[Domain]SliceHash

	// index is the installed set-index function; nil means hardware low
	// bits, computed inline like defaultHash.
	index    IndexFn
	ways     map[Domain]WayRange
	watchers []EvictionWatcher

	// flushSeen is Flush's reused (slice, set) dedup scratch; the domain
	// count is tiny, so a linear scan beats a rebuilt map every call.
	flushSeen [][2]int

	// stats
	llcInserts, llcEvictions uint64
}

// NewHierarchy builds the shared hierarchy with the given geometry. The
// default slice hash covers all slices and all domains share hardware
// indexing and the full way range.
func NewHierarchy(geom Geometry) *Hierarchy {
	if geom.Slices <= 0 {
		panic("cache: hierarchy needs at least one LLC slice")
	}
	h := &Hierarchy{
		geom:        geom,
		defaultHash: NewXORFoldHash(geom.Slices),
		domainHash:  make(map[Domain]SliceHash),
		ways:        make(map[Domain]WayRange),
	}
	h.slices = make([]*SetAssoc, geom.Slices)
	for i := range h.slices {
		h.slices[i] = NewSetAssoc(geom.LLCSets, geom.LLCWays)
	}
	return h
}

// Geometry returns the hierarchy geometry.
func (h *Hierarchy) Geometry() Geometry { return h.geom }

// NewCore allocates a private L1+L2 pair attached to this hierarchy.
func (h *Hierarchy) NewCore() *CoreCaches {
	cc := &CoreCaches{
		h:  h,
		l1: NewSetAssoc(h.geom.L1Sets, h.geom.L1Ways),
		l2: NewSetAssoc(h.geom.L2Sets, h.geom.L2Ways),
	}
	h.cores = append(h.cores, cc)
	return cc
}

// SetIndexFn installs a set-indexing function (randomized-LLC defence).
func (h *Hierarchy) SetIndexFn(fn IndexFn) { h.index = fn }

// SetDomainHash overrides the slice hash for one domain (slice
// partitioning).
func (h *Hierarchy) SetDomainHash(d Domain, sh SliceHash) { h.domainHash[d] = sh }

// SetDomainWays restricts a domain's LLC allocations to a way range (way
// partitioning).
func (h *Hierarchy) SetDomainWays(d Domain, wr WayRange) { h.ways[d] = wr }

// Watch registers an eviction watcher.
func (h *Hierarchy) Watch(w EvictionWatcher) { h.watchers = append(h.watchers, w) }

// SliceOf returns the home LLC slice of line for domain d.
func (h *Hierarchy) SliceOf(d Domain, line Line) int {
	// The common platform installs no per-domain hash; skip the map probe
	// entirely on that hot path.
	if len(h.domainHash) != 0 {
		if sh, ok := h.domainHash[d]; ok {
			return sh.Slice(line)
		}
	}
	return h.defaultHash.Slice(line)
}

// LLCSetOf returns the set index of line within its slice for domain d.
func (h *Hierarchy) LLCSetOf(d Domain, line Line) int {
	if h.index == nil {
		return int(line) & (h.geom.LLCSets - 1)
	}
	return h.index(d, line, h.geom.LLCSets)
}

// llcInsert places line into its home slice for domain d, firing eviction
// watchers for any conflict victim.
func (h *Hierarchy) llcInsert(d Domain, line Line) {
	slice := h.SliceOf(d, line)
	set := h.LLCSetOf(d, line)
	sa := h.slices[slice]
	wr := WayRange{Lo: 0, N: sa.Ways()}
	if len(h.ways) != 0 {
		if w, ok := h.ways[d]; ok {
			wr = w
		}
	}
	evicted, was := sa.InsertWays(set, line, wr.Lo, wr.N)
	h.llcInserts++
	if was {
		h.llcEvictions++
		for _, w := range h.watchers {
			w(evicted, slice)
		}
	}
}

// LLCContains probes for line without updating replacement state.
func (h *Hierarchy) LLCContains(d Domain, line Line) bool {
	slice := h.SliceOf(d, line)
	set := h.LLCSetOf(d, line)
	return h.slices[slice].Contains(set, line)
}

// Stats returns cumulative LLC insert/eviction counts.
func (h *Hierarchy) Stats() (inserts, evictions uint64) {
	return h.llcInserts, h.llcEvictions
}

// Reset returns the hierarchy and every attached core cache to cold
// state in place: all arrays invalidated with their LRU order rewound, every
// defence (domain hashes, index function, way ranges) removed, watchers
// dropped, and the insert/eviction statistics zeroed. The set of attached
// cores is preserved — a reset hierarchy is the one NewHierarchy+NewCore
// built, not an empty one.
func (h *Hierarchy) Reset() {
	for _, s := range h.slices {
		s.Reset()
	}
	for _, cc := range h.cores {
		cc.l1.Reset()
		cc.l2.Reset()
	}
	clear(h.domainHash)
	h.index = nil
	clear(h.ways)
	h.watchers = h.watchers[:0]
	h.flushSeen = h.flushSeen[:0]
	h.llcInserts, h.llcEvictions = 0, 0
}

// Flush invalidates line everywhere: every core's L1 and L2, and the LLC
// under every registered domain mapping. It reports whether the line was
// present anywhere, which is the timing signal Flush+Flush decodes.
func (h *Hierarchy) Flush(line Line) bool {
	present := false
	for _, cc := range h.cores {
		if cc.l1.Remove(int(uint64(line)&uint64(h.geom.L1Sets-1)), line) {
			present = true
		}
		if cc.l2.Remove(int(uint64(line)&uint64(h.geom.L2Sets-1)), line) {
			present = true
		}
	}
	// The flushed line may live under any domain's mapping; clear all.
	// The dedup scratch is owned by the hierarchy and reused per flush —
	// domains are few, so the linear membership scan is cheaper than a
	// map rebuilt on every clflush.
	seen := h.flushSeen[:0]
	seen, present = h.flushUnder(Domain(0), line, seen, present)
	// As in SliceOf, the common platform has no per-domain hash: skip
	// the map iterator setup on every clflush.
	if len(h.domainHash) != 0 {
		for d := range h.domainHash {
			seen, present = h.flushUnder(d, line, seen, present)
		}
	}
	h.flushSeen = seen[:0]
	return present
}

// flushUnder removes line from its home (slice, set) under domain d's
// mapping, skipping positions already cleared this flush.
func (h *Hierarchy) flushUnder(d Domain, line Line, seen [][2]int, present bool) ([][2]int, bool) {
	slice := h.SliceOf(d, line)
	set := h.LLCSetOf(d, line)
	key := [2]int{slice, set}
	for _, k := range seen {
		if k == key {
			return seen, present
		}
	}
	seen = append(seen, key)
	if h.slices[slice].Remove(set, line) {
		present = true
	}
	return seen, present
}

// CoreCaches is one core's private L1 and L2, bound to the shared
// hierarchy.
type CoreCaches struct {
	h      *Hierarchy
	l1, l2 *SetAssoc
}

// L1SetOf returns the L1 set index of line.
func (cc *CoreCaches) L1SetOf(line Line) int {
	return int(uint64(line) & uint64(cc.h.geom.L1Sets-1))
}

// L2SetOf returns the L2 set index of line.
func (cc *CoreCaches) L2SetOf(line Line) int {
	return int(uint64(line) & uint64(cc.h.geom.L2Sets-1))
}

// Access performs a load of line by domain d and returns where it was
// served. Fill policy (Skylake-SP, Table 1): L2 is inclusive of L1, the
// LLC is a non-inclusive victim of the L2 — lines move LLC→L2 on a hit and
// L2→LLC on eviction; memory fills bypass LLC allocation.
//
// The line is hashed to its home slice once, up front, and an LLC hit is a
// single scan that removes the line as it finds it. The hit needs no move
// to the front first: its way is invalidated at once, and the other ways
// keep the order a lookup-then-remove would leave.
func (cc *CoreCaches) Access(d Domain, line Line) AccessResult {
	slice := cc.h.SliceOf(d, line)
	if cc.l1.Lookup(cc.L1SetOf(line), line) {
		return AccessResult{Level: LevelL1, Slice: slice}
	}
	if cc.l2.Lookup(cc.L2SetOf(line), line) {
		cc.fillL1(line)
		return AccessResult{Level: LevelL2, Slice: slice}
	}
	if cc.h.slices[slice].Remove(cc.h.LLCSetOf(d, line), line) {
		// Non-inclusive: the hit promotes the line to L2.
		cc.fillL2(d, line)
		cc.fillL1(line)
		return AccessResult{Level: LevelLLC, Slice: slice}
	}
	// Directory check: another core's private cache may hold the line
	// (non-inclusive LLC keeps a directory of private-cache contents);
	// the home slice forwards the request as a snoop.
	for _, o := range cc.h.cores {
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

// fillL1 inserts line into L1.
func (cc *CoreCaches) fillL1(line Line) {
	cc.l1.Insert(cc.L1SetOf(line), line)
}

// fillL2 inserts line into L2; the victim spills to the LLC and is
// back-invalidated from L1 (L2 is inclusive of L1).
func (cc *CoreCaches) fillL2(d Domain, line Line) {
	evicted, was := cc.l2.Insert(cc.L2SetOf(line), line)
	if was {
		cc.l1.Remove(cc.L1SetOf(evicted), evicted)
		cc.h.llcInsert(d, evicted)
	}
}

// Hierarchy returns the shared hierarchy this core is attached to.
func (cc *CoreCaches) Hierarchy() *Hierarchy { return cc.h }

// InL1 probes L1 without updating LRU.
func (cc *CoreCaches) InL1(line Line) bool { return cc.l1.Contains(cc.L1SetOf(line), line) }

// InL2 probes L2 without updating LRU.
func (cc *CoreCaches) InL2(line Line) bool { return cc.l2.Contains(cc.L2SetOf(line), line) }
