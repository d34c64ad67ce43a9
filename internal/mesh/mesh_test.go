package mesh

import (
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

func newMesh(kind Kind) *Mesh {
	return New(topo.XeonGold6142Socket0, kind, DefaultParams())
}

func TestMeshRouteDimensionOrder(t *testing.T) {
	m := newMesh(KindMesh)
	// Y-then-X: (0,1) -> (2,3) goes down column 0 first, then across
	// row 3.
	route := m.Route(topo.Coord{Col: 0, Row: 1}, topo.Coord{Col: 2, Row: 3})
	want := []Link{
		{topo.Coord{Col: 0, Row: 1}, topo.Coord{Col: 0, Row: 2}},
		{topo.Coord{Col: 0, Row: 2}, topo.Coord{Col: 0, Row: 3}},
		{topo.Coord{Col: 0, Row: 3}, topo.Coord{Col: 1, Row: 3}},
		{topo.Coord{Col: 1, Row: 3}, topo.Coord{Col: 2, Row: 3}},
	}
	if len(route) != len(want) {
		t.Fatalf("route %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route %v, want %v", route, want)
		}
	}
}

func TestMeshHopsMatchManhattan(t *testing.T) {
	m := newMesh(KindMesh)
	f := func(a, b, c, d uint8) bool {
		p := topo.Coord{Col: int(a) % 5, Row: int(b) % 6}
		q := topo.Coord{Col: int(c) % 5, Row: int(d) % 6}
		return m.Hops(p, q) == p.Hops(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingRouteShorterArc(t *testing.T) {
	m := newMesh(KindRing)
	// Ring routes are connected sequences and never longer than half
	// the ring.
	n := 30
	for _, pair := range [][2]topo.Coord{
		{{Col: 0, Row: 0}, {Col: 4, Row: 5}},
		{{Col: 0, Row: 1}, {Col: 0, Row: 2}},
		{{Col: 3, Row: 3}, {Col: 2, Row: 1}},
	} {
		route := m.Route(pair[0], pair[1])
		if len(route) == 0 || len(route) > n/2 {
			t.Errorf("ring route %v->%v has %d hops", pair[0], pair[1], len(route))
		}
		if route[0].From != pair[0] || route[len(route)-1].To != pair[1] {
			t.Errorf("ring route endpoints wrong: %v", route)
		}
		for i := 1; i < len(route); i++ {
			if route[i].From != route[i-1].To {
				t.Fatalf("disconnected ring route: %v", route)
			}
		}
	}
}

func TestContentionRequiresLoad(t *testing.T) {
	m := newMesh(KindMesh)
	m.BeginQuantum(200*sim.Microsecond, 24)
	src, dst := topo.Coord{Col: 0, Row: 1}, topo.Coord{Col: 0, Row: 4}
	if c := m.ContentionCycles(0, src, dst); c != 0 {
		t.Errorf("contention on empty mesh = %v", c)
	}
	// Heavy traffic on the same path must delay a crossing transaction.
	m.AddTraffic(0, src, dst, 50_000)
	if c := m.ContentionCycles(0, src, dst); c <= 0 {
		t.Error("no contention under heavy same-path load")
	}
	// A disjoint path stays clean.
	if c := m.ContentionCycles(0, topo.Coord{Col: 4, Row: 0}, topo.Coord{Col: 4, Row: 1}); c != 0 {
		t.Errorf("contention on disjoint path = %v", c)
	}
}

func TestContentionScalesWithLoad(t *testing.T) {
	src, dst := topo.Coord{Col: 0, Row: 1}, topo.Coord{Col: 0, Row: 4}
	level := func(acc float64) float64 {
		m := newMesh(KindMesh)
		m.BeginQuantum(200*sim.Microsecond, 24)
		m.AddTraffic(0, src, dst, acc)
		return m.ContentionCycles(0, src, dst)
	}
	lo, hi := level(20_000), level(60_000)
	if hi <= lo {
		t.Errorf("contention not increasing with load: %v vs %v", lo, hi)
	}
}

func TestBeginQuantumResets(t *testing.T) {
	m := newMesh(KindMesh)
	m.BeginQuantum(200*sim.Microsecond, 24)
	src, dst := topo.Coord{Col: 0, Row: 1}, topo.Coord{Col: 0, Row: 4}
	m.AddTraffic(0, src, dst, 50_000)
	if m.TotalFlitHops() == 0 {
		t.Fatal("no flit-hops recorded")
	}
	m.BeginQuantum(200*sim.Microsecond, 24)
	if m.TotalFlitHops() != 0 {
		t.Error("flit-hops survived BeginQuantum")
	}
	if c := m.ContentionCycles(0, src, dst); c != 0 {
		t.Error("load survived BeginQuantum")
	}
}

func TestTDMIsolatesDomains(t *testing.T) {
	m := newMesh(KindMesh)
	m.SetTDM(true)
	if !m.TDM() {
		t.Fatal("TDM not enabled")
	}
	m.BeginQuantum(200*sim.Microsecond, 24)
	src, dst := topo.Coord{Col: 0, Row: 1}, topo.Coord{Col: 0, Row: 4}
	// Domain 1 floods; domain 2 must see only the fixed slot cost.
	m.AddTraffic(1, src, dst, 80_000)
	cOther := m.ContentionCycles(2, src, dst)
	slotOnly := float64(len(m.Route(src, dst))) * DefaultParams().TDMSlotCycles
	if cOther != slotOnly {
		t.Errorf("cross-domain contention under TDM = %v, want slot cost %v", cOther, slotOnly)
	}
	// Same-domain queueing still applies.
	if cSame := m.ContentionCycles(1, src, dst); cSame <= slotOnly {
		t.Error("same-domain contention vanished under TDM")
	}
}

func TestAddTrafficIgnoresDegenerate(t *testing.T) {
	m := newMesh(KindMesh)
	m.BeginQuantum(200*sim.Microsecond, 24)
	m.AddTraffic(0, topo.Coord{Col: 1, Row: 1}, topo.Coord{Col: 1, Row: 1}, 100)
	m.AddTraffic(0, topo.Coord{Col: 1, Row: 1}, topo.Coord{Col: 2, Row: 1}, -5)
	if m.TotalFlitHops() != 0 {
		t.Error("degenerate traffic recorded")
	}
}

func TestLinkString(t *testing.T) {
	l := Link{topo.Coord{Col: 0, Row: 1}, topo.Coord{Col: 0, Row: 2}}
	if l.String() != "(0,1)->(0,2)" {
		t.Errorf("Link.String() = %q", l.String())
	}
}

// TestTransactMatchesContentionThenAddTraffic pins Transact to the pair of
// calls it replaces: a seeded stream of single transactions, bulk traffic
// and quantum boundaries runs on two meshes, one answering each
// transaction with Transact and the other with ContentionCycles followed
// by AddTraffic(…, 1). The contention returned and every load row, link
// total and the flit-hop volume must agree bit for bit, on the mesh and
// the ring, with and without TDM, across several domains (one negative),
// src == dst pairs and off-grid coordinates.
func TestTransactMatchesContentionThenAddTraffic(t *testing.T) {
	coords := []topo.Coord{{Col: 5, Row: 2}, {Col: -1, Row: 0}} // off-grid
	for r := 0; r < 6; r++ {
		for c := 0; c < 5; c++ {
			coords = append(coords, topo.Coord{Col: c, Row: r})
		}
	}
	domains := []cache.Domain{0, 1, 3, -2}
	for _, kind := range []Kind{KindMesh, KindRing} {
		for _, tdm := range []bool{false, true} {
			a, b := newMesh(kind), newMesh(kind)
			a.SetTDM(tdm)
			b.SetTDM(tdm)
			rng := rand.New(rand.NewPCG(uint64(kind), 0x7a5c))
			delayed := 0
			for step := 0; step < 20000; step++ {
				d := domains[rng.IntN(len(domains))]
				src, dst := coords[rng.IntN(len(coords))], coords[rng.IntN(len(coords))]
				if rng.IntN(8) == 0 {
					dst = src
				}
				switch op := rng.IntN(100); {
				case op == 0 && step > 2000: // the first quantum runs at zero capacity
					f := sim.Freq(12 + rng.IntN(13))
					a.BeginQuantum(200*sim.Microsecond, f)
					b.BeginQuantum(200*sim.Microsecond, f)
				case op < 10:
					acc := rng.Float64() * 40_000
					a.AddTraffic(d, src, dst, acc)
					b.AddTraffic(d, src, dst, acc)
				default:
					got := a.Transact(d, src, dst)
					want := b.ContentionCycles(d, src, dst)
					b.AddTraffic(d, src, dst, 1)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("kind %d tdm %v step %d: Transact(%d, %v, %v) = %v, ContentionCycles %v",
							kind, tdm, step, d, src, dst, got, want)
					}
					slotOnly := 0.0
					if tdm {
						slotOnly = float64(a.Hops(src, dst)) * a.params.TDMSlotCycles
					}
					if a.inGrid(src) && a.inGrid(dst) && got > slotOnly {
						delayed++
					}
				}
				a.apply() // the raw fields below hold only applied traffic
				b.apply()
				if !sameBits(a.total, b.total) || math.Float64bits(a.totalFlitHops) != math.Float64bits(b.totalFlitHops) {
					t.Fatalf("kind %d tdm %v step %d: link totals or flit-hops diverge", kind, tdm, step)
				}
				if len(a.load) != len(b.load) || !slices.Equal(a.slotOf, b.slotOf) || !maps.Equal(a.negSlot, b.negSlot) {
					t.Fatalf("kind %d tdm %v step %d: domain slots diverge", kind, tdm, step)
				}
				for s := range a.load {
					if !sameBits(a.load[s], b.load[s]) {
						t.Fatalf("kind %d tdm %v step %d: load row %d diverges", kind, tdm, step, s)
					}
				}
			}
			if delayed < 1000 {
				t.Fatalf("kind %d tdm %v: only %d transactions met contention", kind, tdm, delayed)
			}
		}
	}
}

func sameBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
}

// eagerMesh is the reference for deferred accounting: AddTraffic,
// BeginQuantum and Reset as they were when every call loaded the rows at
// once. It never buffers, so the embedded Mesh's readers see only applied
// load.
type eagerMesh struct{ *Mesh }

func (e eagerMesh) AddTraffic(d cache.Domain, src, dst topo.Coord, accesses float64) {
	if accesses <= 0 || src == dst {
		return
	}
	flits := accesses * e.params.FlitsPerAccess
	row := e.load[e.slot(d)]
	if e.inGrid(src) && e.inGrid(dst) {
		for _, ids := range [2][]int32{e.pairRoute(src, dst), e.pairRoute(dst, src)} {
			for _, id := range ids {
				row[id] += flits
				e.total[id] += flits
				e.totalFlitHops += flits
			}
		}
		return
	}
	for _, dir := range [2][2]topo.Coord{{src, dst}, {dst, src}} {
		e.walk(dir[0], dir[1], func(Link) { e.totalFlitHops += flits })
	}
}

func (e eagerMesh) Transact(d cache.Domain, src, dst topo.Coord) float64 {
	if src != dst && (!e.inGrid(src) || !e.inGrid(dst)) {
		e.AddTraffic(d, src, dst, 1)
		return 0
	}
	return e.Mesh.Transact(d, src, dst)
}

func (e eagerMesh) BeginQuantum(quantum sim.Time, fUncore sim.Freq) {
	for _, row := range e.load {
		clear(row)
	}
	clear(e.total)
	e.capacity = fUncore.CyclesIn(quantum) * e.params.LinkFlitsPerCycle
	e.totalFlitHops = 0
}

func (e eagerMesh) Reset() {
	e.tdm = false
	for _, row := range e.load {
		clear(row)
	}
	clear(e.total)
	e.capacity = 0
	e.totalFlitHops = 0
}

// appliedView returns m's rows, totals and flit-hop volume with its
// pending traffic applied, leaving m itself untouched.
func appliedView(m *Mesh) *Mesh {
	c := *m
	c.load = make([][]float64, len(m.load))
	for s, row := range m.load {
		c.load[s] = slices.Clone(row)
	}
	c.total = slices.Clone(m.total)
	c.apply()
	return &c
}

// TestDeferredTrafficMatchesEager runs a seeded operation stream on a mesh
// and on eagerMesh, on the mesh and the ring, with TDM starting off and
// on. Quanta alternate between probe-only, bulk-only (more AddTraffic
// calls than the pending buffer holds, no reader) and mixed op streams;
// AddTraffic covers off-grid, src == dst and non-positive calls across
// domains 0, 1, 3 and -2. After every op the return values, the applied
// load rows, link totals, flit-hop volume and domain slots must agree in
// full bits.
func TestDeferredTrafficMatchesEager(t *testing.T) {
	coords := []topo.Coord{{Col: 5, Row: 2}, {Col: -1, Row: 0}} // off-grid
	for r := 0; r < 6; r++ {
		for c := 0; c < 5; c++ {
			coords = append(coords, topo.Coord{Col: c, Row: r})
		}
	}
	domains := []cache.Domain{0, 1, 3, -2}
	for _, kind := range []Kind{KindMesh, KindRing} {
		for _, tdm := range []bool{false, true} {
			got, want := newMesh(kind), eagerMesh{newMesh(kind)}
			got.SetTDM(tdm)
			want.SetTDM(tdm)
			rng := rand.New(rand.NewPCG(uint64(kind), 0xdefe))
			mix, maxPending := 2, 0
			for step := 0; step < 30000; step++ {
				d := domains[rng.IntN(len(domains))]
				src, dst := coords[rng.IntN(len(coords))], coords[rng.IntN(len(coords))]
				if rng.IntN(8) == 0 {
					dst = src
				}
				var g, w float64
				op := rng.IntN(100)
				switch {
				case op == 0 && rng.IntN(20) == 0:
					got.Reset()
					want.Reset()
				case op == 0 && rng.IntN(10) == 0:
					got.SetTDM(!got.TDM())
					want.SetTDM(!want.TDM())
				case op < 2:
					q := sim.Time(100+rng.IntN(200)) * sim.Microsecond
					f := sim.Freq(12 + rng.IntN(13))
					got.BeginQuantum(q, f)
					want.BeginQuantum(q, f)
					mix = rng.IntN(3) // 0 probe-only, 1 bulk-only, 2 mixed
				case mix == 1 || (mix == 2 && op < 50):
					acc := rng.Float64() * 40_000
					if rng.IntN(16) == 0 {
						acc = -acc * float64(rng.IntN(2))
					}
					got.AddTraffic(d, src, dst, acc)
					want.AddTraffic(d, src, dst, acc)
				case mix == 0 || op < 80:
					g, w = got.Transact(d, src, dst), want.Transact(d, src, dst)
				case op < 92:
					g, w = got.ContentionCycles(d, src, dst), want.ContentionCycles(d, src, dst)
				default:
					g, w = got.TotalFlitHops(), want.TotalFlitHops()
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("kind %d tdm %v step %d op %d: got %v, eager %v", kind, tdm, step, op, g, w)
				}
				maxPending = max(maxPending, got.npending)
				v := appliedView(got)
				if !sameBits(v.total, want.total) || math.Float64bits(v.totalFlitHops) != math.Float64bits(want.totalFlitHops) {
					t.Fatalf("kind %d tdm %v step %d op %d: link totals or flit-hops diverge", kind, tdm, step, op)
				}
				if len(v.load) != len(want.load) || !slices.Equal(v.slotOf, want.slotOf) || !maps.Equal(v.negSlot, want.negSlot) {
					t.Fatalf("kind %d tdm %v step %d op %d: domain slots diverge", kind, tdm, step, op)
				}
				for s := range v.load {
					if !sameBits(v.load[s], want.load[s]) {
						t.Fatalf("kind %d tdm %v step %d op %d: load row %d diverges", kind, tdm, step, op, s)
					}
				}
			}
			if maxPending != pendingCap {
				t.Fatalf("kind %d tdm %v: pending buffer peaked at %d of %d", kind, tdm, maxPending, pendingCap)
			}
		}
	}
}
