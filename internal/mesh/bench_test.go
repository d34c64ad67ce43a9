package mesh_test

// Zero-allocation benchmarks for the hop-accounting hot path: these are
// the calls internal/system makes for every LLC transaction, so they must
// not allocate. scripts/bench.sh gates on their allocs/op staying zero.

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/topo"
)

// BenchmarkMeshAddTraffic times charging one access's flits to the
// precomputed request and response routes.
func BenchmarkMeshAddTraffic(b *testing.B) {
	m := mesh.New(topo.XeonGold6142Socket0, mesh.KindMesh, mesh.DefaultParams())
	die := topo.XeonGold6142Socket0
	src := die.CoreCoord(0)
	dst := die.SliceCoord(die.NumSlices() - 1)
	m.BeginQuantum(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddTraffic(0, src, dst, 1)
	}
}

// BenchmarkMeshContentionCycles times reading a route's congestion after
// traffic has been charged to it.
func BenchmarkMeshContentionCycles(b *testing.B) {
	m := mesh.New(topo.XeonGold6142Socket0, mesh.KindMesh, mesh.DefaultParams())
	die := topo.XeonGold6142Socket0
	src := die.CoreCoord(0)
	dst := die.SliceCoord(die.NumSlices() - 1)
	m.BeginQuantum(200000000, 24) // a 200 µs quantum at 2.4 GHz
	m.AddTraffic(1, src, dst, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ContentionCycles(0, src, dst)
	}
}

// BenchmarkMeshTransact times one LLC transaction's mesh accounting as
// the system charges it: contention read and traffic recorded in a single
// walk of the route, on links already carrying load.
func BenchmarkMeshTransact(b *testing.B) {
	m := mesh.New(topo.XeonGold6142Socket0, mesh.KindMesh, mesh.DefaultParams())
	die := topo.XeonGold6142Socket0
	src := die.CoreCoord(0)
	dst := die.SliceCoord(die.NumSlices() - 1)
	m.BeginQuantum(200000000, 24) // a 200 µs quantum at 2.4 GHz
	m.AddTraffic(1, src, dst, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transact(0, src, dst)
	}
}

// BenchmarkMeshHops times the precomputed hop-distance lookup.
func BenchmarkMeshHops(b *testing.B) {
	m := mesh.New(topo.XeonGold6142Socket0, mesh.KindMesh, mesh.DefaultParams())
	die := topo.XeonGold6142Socket0
	src := die.CoreCoord(0)
	dst := die.SliceCoord(die.NumSlices() - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Hops(src, dst) == 0 {
			b.Fatal("expected a non-zero distance")
		}
	}
}
