package repro_test

// One benchmark per table and figure of the paper's evaluation. Each runs
// the experiment in its quick configuration (full sweeps belong to
// cmd/ufsim and the long-mode tests) and reports the experiment's headline
// metric alongside the usual time/op.

import (
	"testing"

	"repro/internal/experiments"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: 0x5eed + uint64(i), Quick: true}
}

func BenchmarkFig3UncoreFreqVsUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		// Headline cell: one 3-hop thread saturates the uncore.
		b.ReportMetric(res.Freq[len(res.Freq)-1][0], "GHz@3hop1thr")
	}
}

func BenchmarkFig4StallProportion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Freq[0][0], "GHz@1stall0busy")
	}
}

func BenchmarkFig5RampUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.StepMS) > 1 {
			b.ReportMetric(res.StepMS[1], "ms/step")
		}
	}
}

func BenchmarkFig6RampDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.StepMS) > 0 {
			b.ReportMetric(res.StepMS[0], "ms/step")
		}
	}
}

func BenchmarkFig7CrossSocket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		end := res.Traces[1].Samples[len(res.Traces[1].Samples)-1].Value
		b.ReportMetric(end, "followerGHz")
	}
}

func BenchmarkSec32StallRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec32(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ChaseRatio, "stallratio")
	}
}

func BenchmarkFig8LatencyVsFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary[0][len(res.Freqs)-1].Mean, "cycles@2.4GHz")
	}
}

func BenchmarkFig9Transmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Res.BER, "BER")
	}
}

func BenchmarkFig10CapacityCrossCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.PeakCapacity(res.CrossCore).Capacity, "bit/s")
	}
}

func BenchmarkFig10CapacityCrossProcessor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.PeakCapacity(res.CrossProcessor).Capacity, "bit/s")
	}
}

func BenchmarkTable2StressCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tab2(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Capacity[0], "bit/s@N1")
	}
}

func BenchmarkTable3Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tab3(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		functional := 0
		for _, row := range res.Rows {
			for _, c := range res.Cells[row] {
				if c.Functional {
					functional++
				}
			}
		}
		b.ReportMetric(float64(functional), "functionalcells")
	}
}

func BenchmarkFig11FileSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy*100, "accuracy%")
	}
}

func BenchmarkFig12Fingerprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.Top1*100, "top1%")
	}
}

func BenchmarkSec61Countermeasures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec61(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		var restricted float64
		for _, c := range res.Cases {
			if c.Name == "restricted-range" {
				restricted = c.Capacity
			}
		}
		b.ReportMetric(restricted, "bit/s@restricted")
	}
}

func BenchmarkSec61EnergyTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec61e(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "fixed-frequency" {
				b.ReportMetric(row.OverheadPct, "overhead%")
			}
		}
	}
}

func BenchmarkFig10xVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10x(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].CrossCoreC, "bit/s")
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablate(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BERFast[len(res.BERFast)-1], "BER@16ms/10mswin")
	}
}

func BenchmarkSec61fFingerprintDefence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec61f(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Top1Range*100, "top1%@restricted")
	}
}
