// Package mesh models the on-chip interconnect of §2.1: a 2D mesh of
// routers (one per tile, including disabled tiles, whose routers remain
// functional) with dimension-ordered routing. It accounts traffic per
// directed link per simulation quantum, from which it derives:
//
//   - the contention penalty a given transfer suffers (the leakage source
//     of the Mesh-contention baseline channel), and
//   - the distance-weighted "pressure" metric the UFS governor consumes
//     (heavier, longer-distance traffic pushes the uncore frequency up;
//     §3.1, Figure 3).
//
// A ring topology variant covers older parts (the Ring-contention baseline)
// and a time-division-multiplexing mode models the interconnect
// partitioning defence of §4.4 (SurfNoC-style scheduling), which removes
// cross-domain contention at the price of a fixed slot latency.
//
// The accounting is index-addressed: every directed link of the floorplan
// is enumerated once at construction and every (src, dst) route — link-ID
// path and hop count — is precomputed, so the per-access hot path
// (Transact, Hops) and the bulk and inspection calls (AddTraffic,
// ContentionCycles) walk dense slices and allocate nothing.
//
// Per-quantum load lives in flat per-domain rows indexed by link ID and is
// applied on read: AddTraffic records each call in a fixed-size buffer,
// and Transact, ContentionCycles and TotalFlitHops apply the pending
// records in call order before they look. Every sum thus sees the eager
// operands in the eager order, and a quantum nothing reads never builds its
// rows; BeginQuantum zeroes them in place only if something was applied.
package mesh

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Kind selects the interconnect topology.
type Kind int

const (
	// KindMesh is the Skylake-SP 2D mesh with Y-then-X routing.
	KindMesh Kind = iota
	// KindRing is the older ring bus: tiles ordered around a loop,
	// traffic takes the shorter arc.
	KindRing
)

// Link is a directed router-to-router edge.
type Link struct {
	From, To topo.Coord
}

func (l Link) String() string { return fmt.Sprintf("%v->%v", l.From, l.To) }

// Params holds the interconnect model constants.
type Params struct {
	// FlitsPerAccess is the link occupancy of one LLC transaction in
	// each direction (request one way, data the other).
	FlitsPerAccess float64
	// LinkFlitsPerCycle is a link's capacity in flits per uncore cycle.
	LinkFlitsPerCycle float64
	// ContentionThreshold is the utilisation fraction above which a
	// link starts to delay crossing traffic.
	ContentionThreshold float64
	// ContentionMaxCycles is the added uncore-cycle delay per crossed
	// link at full utilisation.
	ContentionMaxCycles float64
	// TDMSlotCycles is the fixed extra per-link latency paid under
	// time-multiplexed scheduling (waiting for the domain's slot).
	TDMSlotCycles float64
}

// pendingCap is how many AddTraffic records a quantum buffers before it
// applies them to the load rows; a full buffer is applied, never dropped.
const pendingCap = 32

// pendingAdd is one deferred AddTraffic call: the domain's load row, the
// request and response route pairs, and the flits loaded on each link.
type pendingAdd struct {
	slot, fwd, rev int32
	flits          float64
}

// DefaultParams returns constants sized so that a handful of saturating
// traffic threads sharing a link produce a clearly measurable (several
// uncore cycles) delay, matching the magnitudes reported for mesh
// interference attacks.
func DefaultParams() Params {
	return Params{
		FlitsPerAccess:      5, // 1 request + 4 data flits averaged per direction
		LinkFlitsPerCycle:   8,
		ContentionThreshold: 0.02,
		ContentionMaxCycles: 60,
		TDMSlotCycles:       2,
	}
}

// Mesh accounts interconnect traffic for one socket over one simulation
// quantum. The system resets it every quantum via BeginQuantum.
type Mesh struct {
	die    *topo.Die
	kind   Kind
	params Params

	cols, rows, ntiles int

	// links enumerates every directed router-to-router edge of the
	// floorplan once; link IDs index the load rows below.
	links []Link

	// routeIDs/routeOff encode the precomputed link-ID path of every
	// (srcTile, dstTile) pair: pair p's path is
	// routeIDs[routeOff[p]:routeOff[p+1]]. hops caches each pair's
	// routed hop count.
	routeIDs []int32
	routeOff []int32
	hops     []int16

	// load rows are flits injected this quantum per link, one dense row
	// per security domain slot; total is the cross-domain sum per link
	// (the non-TDM contention input). slotOf maps small non-negative
	// domains to their row without hashing; negSlot is the fallback for
	// exotic negative domain values.
	load    [][]float64
	total   []float64
	slotOf  []int32
	negSlot map[cache.Domain]int

	// pending[:npending] holds the AddTraffic calls not yet applied to the
	// rows, in call order; dirty reports that the rows or totals hold load
	// since they were last zeroed.
	npending int
	dirty    bool

	// quantum capacity in flits, refreshed each BeginQuantum.
	capacity float64

	// tdm enables time-division multiplexing between domains.
	tdm bool

	// ringOrder maps tile index to ring position; ringCoord inverts it.
	ringOrder []int
	ringCoord []topo.Coord

	totalFlitHops float64

	// pending comes last, clear of the fields Transact reads per access.
	pending [pendingCap]pendingAdd
}

// New returns an interconnect for the given die.
func New(die *topo.Die, kind Kind, params Params) *Mesh {
	m := &Mesh{
		die:    die,
		kind:   kind,
		params: params,
		cols:   die.Cols,
		rows:   die.Rows,
		ntiles: die.Cols * die.Rows,
	}
	if kind == KindRing {
		m.ringOrder = make([]int, m.ntiles)
		m.ringCoord = make([]topo.Coord, m.ntiles)
		// Serpentine order over the grid approximates the physical
		// ring stops.
		i := 0
		for r := 0; r < die.Rows; r++ {
			for c := 0; c < die.Cols; c++ {
				col := c
				if r%2 == 1 {
					col = die.Cols - 1 - c
				}
				coord := topo.Coord{Col: col, Row: r}
				m.ringOrder[m.tileIdx(coord)] = i
				m.ringCoord[i] = coord
				i++
			}
		}
	}
	m.enumerate()
	m.total = make([]float64, len(m.links))
	return m
}

// tileIdx flattens an in-grid coordinate to a dense tile index.
func (m *Mesh) tileIdx(c topo.Coord) int { return c.Row*m.cols + c.Col }

// inGrid reports whether c lies on the floorplan. Coordinates off the die
// take the uncached fallback paths, so the precomputed tables never see
// them.
func (m *Mesh) inGrid(c topo.Coord) bool {
	return c.Col >= 0 && c.Col < m.cols && c.Row >= 0 && c.Row < m.rows
}

// enumerate assigns every directed link an ID and precomputes the link-ID
// route and hop count of every tile pair.
func (m *Mesh) enumerate() {
	idx := make(map[Link]int32, 4*m.ntiles)
	addLink := func(from, to topo.Coord) {
		l := Link{From: from, To: to}
		if _, dup := idx[l]; dup {
			return
		}
		idx[l] = int32(len(m.links))
		m.links = append(m.links, l)
	}
	switch m.kind {
	case KindMesh:
		for r := 0; r < m.rows; r++ {
			for c := 0; c < m.cols; c++ {
				at := topo.Coord{Col: c, Row: r}
				if c+1 < m.cols {
					right := topo.Coord{Col: c + 1, Row: r}
					addLink(at, right)
					addLink(right, at)
				}
				if r+1 < m.rows {
					down := topo.Coord{Col: c, Row: r + 1}
					addLink(at, down)
					addLink(down, at)
				}
			}
		}
	case KindRing:
		for p := 0; p < m.ntiles; p++ {
			next := (p + 1) % m.ntiles
			addLink(m.ringCoord[p], m.ringCoord[next])
			addLink(m.ringCoord[next], m.ringCoord[p])
		}
	}
	m.routeOff = make([]int32, m.ntiles*m.ntiles+1)
	m.hops = make([]int16, m.ntiles*m.ntiles)
	for s := 0; s < m.ntiles; s++ {
		src := topo.Coord{Col: s % m.cols, Row: s / m.cols}
		for d := 0; d < m.ntiles; d++ {
			dst := topo.Coord{Col: d % m.cols, Row: d / m.cols}
			pair := s*m.ntiles + d
			n := 0
			m.walk(src, dst, func(l Link) {
				m.routeIDs = append(m.routeIDs, idx[l])
				n++
			})
			m.routeOff[pair+1] = int32(len(m.routeIDs))
			m.hops[pair] = int16(n)
		}
	}
}

// walk visits the directed links from src to dst in route order. The mesh
// uses Y-then-X dimension-ordered routing (traffic moves vertically first,
// as on Skylake-SP); the ring takes the shorter arc.
func (m *Mesh) walk(src, dst topo.Coord, visit func(Link)) {
	if src == dst {
		return
	}
	switch m.kind {
	case KindMesh:
		cur := src
		for cur.Row != dst.Row {
			next := cur
			if dst.Row > cur.Row {
				next.Row++
			} else {
				next.Row--
			}
			visit(Link{From: cur, To: next})
			cur = next
		}
		for cur.Col != dst.Col {
			next := cur
			if dst.Col > cur.Col {
				next.Col++
			} else {
				next.Col--
			}
			visit(Link{From: cur, To: next})
			cur = next
		}
	case KindRing:
		if !m.inGrid(src) || !m.inGrid(dst) {
			return // the ring has stops only at floorplan tiles
		}
		n := m.ntiles
		a, b := m.ringOrder[m.tileIdx(src)], m.ringOrder[m.tileIdx(dst)]
		fwd := (b - a + n) % n
		step := 1
		if fwd > n-fwd {
			step = n - 1 // go backwards
		}
		cur := a
		for cur != b {
			next := (cur + step) % n
			visit(Link{From: m.ringCoord[cur], To: m.ringCoord[next]})
			cur = next
		}
	}
}

// pairRoute returns the precomputed link-ID path for an in-grid pair.
func (m *Mesh) pairRoute(src, dst topo.Coord) []int32 {
	return m.route(m.tileIdx(src)*m.ntiles + m.tileIdx(dst))
}

// route returns the precomputed link-ID path of pair index p.
func (m *Mesh) route(p int) []int32 { return m.routeIDs[m.routeOff[p]:m.routeOff[p+1]] }

// slot returns domain d's dense row index, registering the domain (and
// growing its load row) on first sight. Small non-negative domains — every
// domain the experiments use — resolve through a flat slice lookup.
func (m *Mesh) slot(d cache.Domain) int {
	if d >= 0 && int(d) < len(m.slotOf) {
		if s := m.slotOf[d]; s >= 0 {
			return int(s)
		}
	}
	return m.addSlot(d)
}

func (m *Mesh) addSlot(d cache.Domain) int {
	if d < 0 {
		if s, ok := m.negSlot[d]; ok {
			return s
		}
		if m.negSlot == nil {
			m.negSlot = make(map[cache.Domain]int)
		}
		s := len(m.load)
		m.negSlot[d] = s
		m.load = append(m.load, make([]float64, len(m.links)))
		return s
	}
	for int(d) >= len(m.slotOf) {
		m.slotOf = append(m.slotOf, -1)
	}
	s := len(m.load)
	m.slotOf[d] = int32(s)
	m.load = append(m.load, make([]float64, len(m.links)))
	return s
}

// Reset returns the interconnect to cold state in place: TDM off, pending
// traffic dropped, all per-quantum load rows zeroed, and the aggregate
// counters cleared. The precomputed link/route tables are immutable and
// untouched; domain slot registrations persist (their rows are zeroed),
// which is behaviour-neutral because contention only reads row values,
// never row identity.
func (m *Mesh) Reset() {
	m.tdm = false
	m.npending = 0
	for _, row := range m.load {
		clear(row)
	}
	clear(m.total)
	m.dirty = false
	m.capacity = 0
	m.totalFlitHops = 0
}

// SetTDM switches time-division-multiplexed scheduling on or off.
func (m *Mesh) SetTDM(on bool) { m.tdm = on }

// TDM reports whether time-multiplexed scheduling is active.
func (m *Mesh) TDM() bool { return m.tdm }

// BeginQuantum clears the per-quantum load accounting in place and
// recomputes link capacity for the quantum length and current uncore
// frequency. Traffic still pending was never read and is dropped; the
// dense rows are zeroed, not rebuilt, and only if something was applied
// to them since the last clear.
func (m *Mesh) BeginQuantum(quantum sim.Time, fUncore sim.Freq) {
	m.npending = 0
	if m.dirty {
		for _, row := range m.load {
			clear(row)
		}
		clear(m.total)
		m.dirty = false
	}
	m.capacity = fUncore.CyclesIn(quantum) * m.params.LinkFlitsPerCycle
	m.totalFlitHops = 0
}

// Route returns the directed links from src to dst, in route order. It
// materialises a fresh slice and is meant for inspection and tests; the
// hot paths (Transact, AddTraffic, ContentionCycles, Hops) use the precomputed
// link-ID tables directly and never call it.
func (m *Mesh) Route(src, dst topo.Coord) []Link {
	if src == dst {
		return nil
	}
	if m.inGrid(src) && m.inGrid(dst) {
		ids := m.pairRoute(src, dst)
		if len(ids) == 0 {
			return nil
		}
		out := make([]Link, len(ids))
		for i, id := range ids {
			out[i] = m.links[id]
		}
		return out
	}
	var out []Link
	m.walk(src, dst, func(l Link) { out = append(out, l) })
	return out
}

// Hops returns the routed hop count between two tiles.
func (m *Mesh) Hops(src, dst topo.Coord) int {
	if src == dst {
		return 0
	}
	if m.inGrid(src) && m.inGrid(dst) {
		return int(m.hops[m.tileIdx(src)*m.ntiles+m.tileIdx(dst)])
	}
	n := 0
	m.walk(src, dst, func(Link) { n++ })
	return n
}

// AddTraffic records accesses LLC transactions flowing between src and dst
// this quantum on behalf of domain d. Both directions are loaded (request
// and data paths). The load is applied to the link rows when a reader
// (Transact, ContentionCycles, TotalFlitHops) next looks, or when the
// pending buffer fills; the domain's slot is registered now.
func (m *Mesh) AddTraffic(d cache.Domain, src, dst topo.Coord, accesses float64) {
	if accesses <= 0 || src == dst {
		return
	}
	flits := accesses * m.params.FlitsPerAccess
	slot := m.slot(d)
	if m.inGrid(src) && m.inGrid(dst) {
		if m.npending == pendingCap {
			m.apply()
		}
		s, t := int32(m.tileIdx(src)), int32(m.tileIdx(dst))
		n := int32(m.ntiles)
		m.pending[m.npending] = pendingAdd{int32(slot), s*n + t, t*n + s, flits}
		m.npending++
		return
	}
	m.apply()
	for _, dir := range [2][2]topo.Coord{{src, dst}, {dst, src}} {
		m.walk(dir[0], dir[1], func(Link) {
			// Off-grid coordinates have no enumerated links; only the
			// aggregate volume is visible to the governor.
			m.totalFlitHops += flits
		})
	}
}

// ContentionCycles returns the extra uncore cycles a single transaction of
// domain d travelling src→dst suffers from traffic injected this quantum.
// Under TDM, other domains' load is invisible (their slots are disjoint)
// but every crossed link costs a fixed slot-wait.
func (m *Mesh) ContentionCycles(d cache.Domain, src, dst topo.Coord) float64 {
	if src == dst || !m.inGrid(src) || !m.inGrid(dst) {
		return 0
	}
	if m.npending != 0 {
		m.apply()
	}
	seen := m.total
	if m.tdm {
		seen = m.load[m.slot(d)]
	}
	var extra float64
	for _, id := range m.pairRoute(src, dst) {
		extra = m.linkDelay(extra, seen[id])
	}
	return extra
}

// Transact accounts one LLC transaction of domain d between src and dst:
// it returns the contention the request meets on the src→dst route (as
// ContentionCycles) and records the transaction's traffic in both
// directions (as AddTraffic with one access), walking the forward route
// once. A route never repeats a link, so reading each link's load before
// adding to it sees exactly what ContentionCycles would have seen first.
func (m *Mesh) Transact(d cache.Domain, src, dst topo.Coord) float64 {
	if src == dst {
		return 0
	}
	if !m.inGrid(src) || !m.inGrid(dst) {
		m.AddTraffic(d, src, dst, 1)
		return 0
	}
	if m.npending != 0 {
		m.apply()
	}
	m.dirty = true
	flits := m.params.FlitsPerAccess
	row := m.load[m.slot(d)]
	seen := m.total
	if m.tdm {
		seen = row
	}
	var extra float64
	hops := m.totalFlitHops
	for _, id := range m.pairRoute(src, dst) {
		extra = m.linkDelay(extra, seen[id])
		row[id] += flits
		m.total[id] += flits
		hops += flits
	}
	m.totalFlitHops = addFlits(row, m.total, m.pairRoute(dst, src), flits, hops)
	return extra
}

// apply loads every pending AddTraffic record onto its routes, in call
// order, and empties the buffer.
func (m *Mesh) apply() {
	if m.npending == 0 {
		return
	}
	m.dirty = true
	hops := m.totalFlitHops
	for _, p := range m.pending[:m.npending] {
		row := m.load[p.slot]
		hops = addFlits(row, m.total, m.route(int(p.fwd)), p.flits, hops)
		hops = addFlits(row, m.total, m.route(int(p.rev)), p.flits, hops)
	}
	m.totalFlitHops = hops
	m.npending = 0
}

// addFlits loads flits onto every link of a route, in the domain's row
// and in the cross-domain totals, and returns hops plus the flit·hops
// added.
func addFlits(row, total []float64, ids []int32, flits, hops float64) float64 {
	for _, id := range ids {
		row[id] += flits
		total[id] += flits
		hops += flits
	}
	return hops
}

// linkDelay adds to extra the delay of crossing one link that carries
// flits of contending traffic this quantum: the TDM slot-wait, if
// scheduling is time-multiplexed, then the queueing delay once the link's
// utilisation passes the contention threshold.
func (m *Mesh) linkDelay(extra, flits float64) float64 {
	if m.tdm {
		extra += m.params.TDMSlotCycles
	}
	if flits == 0 || m.capacity <= 0 {
		return extra
	}
	util := flits / m.capacity
	if util > m.params.ContentionThreshold {
		over := util - m.params.ContentionThreshold
		if over > 1 {
			over = 1
		}
		extra += over * m.params.ContentionMaxCycles
	}
	return extra
}

// TotalFlitHops returns the flit·hop volume injected this quantum, an
// aggregate utilisation signal, applying pending traffic first.
func (m *Mesh) TotalFlitHops() float64 {
	m.apply()
	return m.totalFlitHops
}
