// Package timing converts functional access results (which cache level,
// how many mesh hops, how much contention) into latencies in core cycles,
// the unit the paper's receiver observes through rdtscp (§4.2, Figure 8).
//
// The model splits an LLC access into a core-clock part (L1/L2 lookups,
// load-store machinery) and an uncore-clock part (slice pipeline plus mesh
// traversal). Only the uncore part stretches when the uncore slows down:
//
//	latency(core cycles) = Lcore + (Lslice + 2·hops·Lhop + contention) · fcore/funcore + noise
//
// The constants are fitted to Figure 8: a 0-hop LLC hit costs ≈58 cycles
// at 2.4 GHz and ≈80 cycles at 1.5 GHz, with each hop adding ≈2 uncore
// cycles per direction. This is the dependency the whole covert channel
// rests on: LLC latency is a monotone, invertible function of the uncore
// frequency.
package timing

import (
	"math"

	"repro/internal/cache"
	"repro/internal/sim"
)

// Params holds the latency-model constants. All cycle values are in the
// clock domain indicated by their name.
type Params struct {
	// L1Cycles is an L1 hit, in core cycles.
	L1Cycles float64
	// L2Cycles is an L2 hit, in core cycles.
	L2Cycles float64
	// LLCCoreCycles is the core-clock-domain constant of an LLC access
	// (address generation, L1/L2 lookup, fill) in core cycles.
	LLCCoreCycles float64
	// LLCSliceUncore is the uncore-clock-domain cost of the slice
	// pipeline and mesh injection, in uncore cycles.
	LLCSliceUncore float64
	// HopUncore is the per-hop, per-direction mesh traversal cost in
	// uncore cycles.
	HopUncore float64
	// MemCoreCycles is the DRAM-array part of a full miss, in core
	// cycles (frequency independent).
	MemCoreCycles float64
	// MemUncoreCycles is the additional uncore-domain cost of a miss
	// (IMC queues, mesh to the controller tile), in uncore cycles.
	MemUncoreCycles float64
	// FenceCycles is the serialization overhead of the measurement
	// loop's mfence/lfence/rdtscp pair (Listing 3) in core cycles. It
	// keeps the receiver's access density low (§4.2).
	FenceCycles float64
	// NoiseStd is the gaussian per-sample measurement noise, in core
	// cycles.
	NoiseStd float64
	// DriftStd, DriftRho and DriftPeriod describe slowly varying
	// correlated noise (prefetcher/TLB/thermal phases): an AR(1)
	// process updated every DriftPeriod that offsets all of a thread's
	// samples. It bounds how small a latency shift a window mean can
	// resolve, which is what limits the channel at short intervals.
	DriftStd    float64
	DriftRho    float64
	DriftPeriod sim.Time
	// TailProb and TailCycles model occasional long-tail samples
	// (TLB walks, snoop delays): with probability TailProb an access
	// costs TailCycles extra. Drives the 1–99 % whiskers of Figure 8.
	TailProb   float64
	TailCycles float64
	// TrafficMLP is the memory-level parallelism of the traffic loop
	// (Listing 1): its independent accesses overlap, so per-thread
	// throughput is TrafficMLP/latency. The stalling loop (Listing 2)
	// has MLP 1 by construction.
	TrafficMLP float64
}

// Default returns the constants fitted to the paper's platform.
func Default() Params {
	return Params{
		L1Cycles:        4,
		L2Cycles:        14,
		LLCCoreCycles:   21.33,
		LLCSliceUncore:  33.85,
		HopUncore:       2.0,
		MemCoreCycles:   120,
		MemUncoreCycles: 40,
		FenceCycles:     90,
		NoiseStd:        1.2,
		DriftStd:        0.5,
		DriftRho:        0.85,
		DriftPeriod:     sim.Millisecond,
		TailProb:        0.01,
		TailCycles:      14,
		TrafficMLP:      8,
	}
}

// uncoreScale is the stretch factor applied to uncore-domain cycles when
// expressed in core cycles.
func uncoreScale(fCore, fUncore sim.Freq) float64 {
	return fCore.GHz() / fUncore.GHz()
}

// LLCMeanCycles returns the noise-free mean latency of an LLC hit in core
// cycles, for hops mesh hops and contention extra uncore cycles.
func (p *Params) LLCMeanCycles(fCore, fUncore sim.Freq, hops int, contention float64) float64 {
	u := p.LLCSliceUncore + 2*float64(hops)*p.HopUncore + contention
	return p.LLCCoreCycles + u*uncoreScale(fCore, fUncore)
}

// MemMeanCycles returns the noise-free mean latency of a full miss served
// by memory, in core cycles.
func (p *Params) MemMeanCycles(fCore, fUncore sim.Freq, hops int, contention float64) float64 {
	u := p.LLCSliceUncore + 2*float64(hops)*p.HopUncore + p.MemUncoreCycles + contention
	return p.LLCCoreCycles + p.MemCoreCycles + u*uncoreScale(fCore, fUncore)
}

// noise draws the additive measurement noise in core cycles.
func (p *Params) noise(rng *sim.Rand) float64 {
	n := rng.Norm(0, p.NoiseStd)
	if rng.Bool(p.TailProb) {
		n += p.TailCycles * (0.5 + rng.Float64())
	}
	return n
}

// SampleCycles returns one observed latency, in whole core cycles, for an
// access served at the given level. hops and contention apply to LLC and
// memory accesses.
func (p *Params) SampleCycles(level cache.Level, fCore, fUncore sim.Freq, hops int, contention float64, rng *sim.Rand) float64 {
	var mean float64
	switch level {
	case cache.LevelL1:
		mean = p.L1Cycles
	case cache.LevelL2:
		mean = p.L2Cycles
	case cache.LevelLLC:
		mean = p.LLCMeanCycles(fCore, fUncore, hops, contention)
	case cache.LevelRemote:
		// Directory-forwarded snoop from another core's private cache:
		// the home-slice trip plus a second mesh traversal, still far
		// cheaper than DRAM.
		mean = p.LLCMeanCycles(fCore, fUncore, hops, contention) +
			(p.LLCSliceUncore/2+4*p.HopUncore)*uncoreScale(fCore, fUncore)
	default:
		mean = p.MemMeanCycles(fCore, fUncore, hops, contention)
	}
	lat := mean + p.noise(rng)
	if lat < 1 {
		lat = 1
	}
	return math.Round(lat)
}

// Drift is the state of one thread's correlated noise process.
type Drift struct {
	val float64
	at  sim.Time
	set bool
}

// Sample advances the drift process to now and returns the current offset
// in core cycles.
func (d *Drift) Sample(p *Params, now sim.Time, rng *sim.Rand) float64 {
	if p.DriftStd <= 0 || p.DriftPeriod <= 0 {
		return 0
	}
	if !d.set || now-d.at > 50*p.DriftPeriod {
		d.val = rng.Norm(0, p.DriftStd)
		d.at = now
		d.set = true
		return d.val
	}
	innov := p.DriftStd * math.Sqrt(1-p.DriftRho*p.DriftRho)
	for d.at+p.DriftPeriod <= now {
		d.val = p.DriftRho*d.val + rng.Norm(0, innov)
		d.at += p.DriftPeriod
	}
	return d.val
}

// UncoreFromLatency inverts the LLC-latency model: given an observed mean
// latency (core cycles) for an LLC hit at a known hop distance, it returns
// the implied uncore frequency snapped to the nearest 100 MHz operating
// point within [lo, hi]. This is the receiver's §4.2 primitive: inferring
// the uncore frequency from timing alone, without MSR access.
func (p *Params) UncoreFromLatency(latCycles float64, fCore sim.Freq, hops int, lo, hi sim.Freq) sim.Freq {
	u := p.LLCSliceUncore + 2*float64(hops)*p.HopUncore
	denom := latCycles - p.LLCCoreCycles
	if denom <= 0 {
		return hi
	}
	ghz := u * fCore.GHz() / denom
	f := sim.Freq(math.Round(ghz * 10))
	return f.Clamp(lo, hi)
}

// TrafficAccessTime returns the average spacing between LLC accesses of
// one traffic-loop thread (Listing 1) at the given frequencies and hop
// distance: latency divided by the loop's memory-level parallelism.
func (p *Params) TrafficAccessTime(fCore, fUncore sim.Freq, hops int) sim.Time {
	lat := p.LLCMeanCycles(fCore, fUncore, hops, 0)
	return fCore.TimeFor(lat / p.TrafficMLP)
}

// ChaseAccessTime returns the spacing between accesses of a pointer-chase
// thread (Listing 2): fully serialized, MLP 1.
func (p *Params) ChaseAccessTime(fCore, fUncore sim.Freq, hops int) sim.Time {
	lat := p.LLCMeanCycles(fCore, fUncore, hops, 0)
	return fCore.TimeFor(lat)
}

// ReferenceRate returns the LLC access rate (accesses per second) of one
// reference traffic thread (0-hop, full MLP) at the given frequencies.
// The UFS governor normalizes observed access counts by this rate, so
// "one busy traffic thread" is one unit of LLC utilisation.
func (p *Params) ReferenceRate(fCore, fUncore sim.Freq) float64 {
	return 1 / p.TrafficAccessTime(fCore, fUncore, 0).Seconds()
}
