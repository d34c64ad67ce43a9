package mesh_test

// The hop-accounting hot path: these are the calls internal/system makes
// for every LLC transaction, so they must not allocate. Each shape is a
// setup that returns one step: BenchmarkX loops the step, and
// TestZeroAlloc checks that it does not allocate.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/topo"
)

// route builds the die's mesh and its longest core-to-slice route.
func route() (*mesh.Mesh, topo.Coord, topo.Coord) {
	die := topo.XeonGold6142Socket0
	m := mesh.New(die, mesh.KindMesh, mesh.DefaultParams())
	return m, die.CoreCoord(0), die.SliceCoord(die.NumSlices() - 1)
}

// loaded is route with links already carrying load in a 200 µs quantum
// at 2.4 GHz.
func loaded() (*mesh.Mesh, topo.Coord, topo.Coord) {
	m, src, dst := route()
	m.BeginQuantum(200*sim.Microsecond, 24)
	m.AddTraffic(1, src, dst, 50000)
	return m, src, dst
}

// addTraffic charges one access's flits to the precomputed request and
// response routes.
func addTraffic(testing.TB) func() {
	m, src, dst := route()
	m.BeginQuantum(1, 1)
	return func() { m.AddTraffic(0, src, dst, 1) }
}

// contentionCycles reads a route's congestion after traffic has been
// charged to it.
func contentionCycles(testing.TB) func() {
	m, src, dst := loaded()
	return func() { m.ContentionCycles(0, src, dst) }
}

// transact is one LLC transaction's mesh accounting as the system
// charges it: contention read and traffic recorded in a single walk of
// the route, on links already carrying load.
func transact(testing.TB) func() {
	m, src, dst := loaded()
	return func() { m.Transact(0, src, dst) }
}

// hops is the precomputed hop-distance lookup.
func hops(tb testing.TB) func() {
	m, src, dst := route()
	return func() {
		if m.Hops(src, dst) == 0 {
			tb.Fatal("expected a non-zero distance")
		}
	}
}

// deferredTraffic is an unread quantum: 1,000 AddTraffic calls, more
// than the pending buffer holds, then the next BeginQuantum.
func deferredTraffic(testing.TB) func() {
	m, _, _ := route()
	die := topo.XeonGold6142Socket0
	return func() {
		for i := 0; i < 1000; i++ {
			m.AddTraffic(cache.Domain(i%3), die.CoreCoord(i%die.NumCores()), die.SliceCoord(i%die.NumSlices()), 1)
		}
		m.BeginQuantum(200*sim.Microsecond, 24)
	}
}

func TestZeroAlloc(t *testing.T) {
	for _, s := range []struct {
		name  string
		setup func(testing.TB) func()
	}{
		{"add-traffic", addTraffic},
		{"contention-cycles", contentionCycles},
		{"transact", transact},
		{"hops", hops},
		{"deferred-traffic", deferredTraffic},
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

func BenchmarkMeshAddTraffic(b *testing.B)       { loop(b, addTraffic) }
func BenchmarkMeshContentionCycles(b *testing.B) { loop(b, contentionCycles) }
func BenchmarkMeshTransact(b *testing.B)         { loop(b, transact) }
func BenchmarkMeshHops(b *testing.B)             { loop(b, hops) }
