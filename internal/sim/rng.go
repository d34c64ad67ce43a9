package sim

import (
	"math"
	"math/rand/v2"
)

// Rand is the deterministic random source used throughout the simulator.
// It wraps a seeded PCG so that all experiments are reproducible, and adds
// the distributions the timing and workload models need.
type Rand struct {
	src *rand.Rand
	pcg *rand.PCG
}

// pcgSeedMix derives the PCG's second seed word from the first.
const pcgSeedMix = 0x9e3779b97f4a7c15

// NewRand returns a Rand seeded from seed. Two Rands with the same seed
// produce identical streams.
func NewRand(seed uint64) *Rand {
	pcg := rand.NewPCG(seed, seed^pcgSeedMix)
	return &Rand{src: rand.New(pcg), pcg: pcg}
}

// Reseed restarts r in place on the stream NewRand(seed) produces, so
// recycled owners (pooled machines) reseed without allocating.
func (r *Rand) Reseed(seed uint64) {
	r.pcg.Seed(seed, seed^pcgSeedMix)
}

// Split derives an independent child stream from r and a label, so that
// adding consumers of randomness in one component does not perturb the
// stream seen by another.
func (r *Rand) Split(label uint64) *Rand {
	return NewRand(r.splitSeed(label))
}

// SplitInto is Split reseeding dst in place instead of allocating: dst
// then produces the stream Split(label) would have returned. It returns
// dst.
func (r *Rand) SplitInto(dst *Rand, label uint64) *Rand {
	dst.Reseed(r.splitSeed(label))
	return dst
}

func (r *Rand) splitSeed(label uint64) uint64 {
	return r.src.Uint64() ^ (label * 0xbf58476d1ce4e5b9)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform value in [0, n).
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// Norm returns a normally distributed value with the given mean and
// standard deviation.
func (r *Rand) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Jitter returns a duration drawn uniformly from [0, max).
func (r *Rand) Jitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(r.src.Int64N(int64(max)))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return -mean * math.Log(1-r.src.Float64())
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomly reorders n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// HashString folds a string into a 64-bit seed (FNV-1a). It is used to give
// named entities (e.g. websites in the fingerprinting corpus) stable,
// independent random streams.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
