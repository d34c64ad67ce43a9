package repro_test

// One benchmark over the whole catalog: a sub-benchmark per experiment,
// each running the experiment in its quick configuration (full sweeps
// belong to cmd/ufsim and the long-mode tests). The goldens in
// internal/experiments/testdata pin the numbers; these time them. A new
// experiment is benchmarked as soon as it is registered.
//
//	go test -run '^$' -bench Experiments/fig3 .

import (
	"testing"

	"repro/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Options{Seed: 0x5eed + uint64(i), Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
