// Package rng provides deterministic, splittable pseudo-randomness for the
// DECOR simulations. Every experiment derives all of its random choices
// from a single uint64 seed, so runs are exactly reproducible and the 5-run
// averages in the paper's evaluation can be regenerated bit-for-bit.
//
// The generator is a 64-bit PCG (PCG-XSH-RR variant over a 64-bit LCG
// state is the classic; here we use the xsl-rr 128→64 recommended for
// 64-bit output, implemented without math/bits dependencies beyond the
// standard library).
package rng

import (
	"math"
	"math/bits"

	"decor/internal/geom"
)

// RNG is a deterministic pseudo-random generator. The zero value is not
// usable; construct with New.
type RNG struct {
	hi, lo uint64 // 128-bit LCG state
}

const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// New returns a generator seeded by seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{hi: seed, lo: seed ^ 0x9e3779b97f4a7c15}
	// Warm up so close seeds diverge.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Split derives an independent generator from r's stream. The derived
// stream is decorrelated from both r's future output and other splits.
func (r *RNG) Split() *RNG {
	s := r.Uint64()
	t := r.Uint64()
	child := &RNG{hi: s ^ 0x2545f4914f6cdd1d, lo: t ^ 0x9e3779b97f4a7c15}
	for i := 0; i < 4; i++ {
		child.Uint64()
	}
	return child
}

// State returns the generator's exact 128-bit internal state. Together
// with FromState it is the snapshot serialization of an RNG: a restored
// generator continues the original's stream bit-for-bit.
func (r *RNG) State() (hi, lo uint64) { return r.hi, r.lo }

// FromState reconstructs a generator at an exact state previously
// captured by State. Unlike New it performs no warm-up: the state is
// already mid-stream.
func FromState(hi, lo uint64) *RNG { return &RNG{hi: hi, lo: lo} }

// Clone returns an independent generator with r's exact current state:
// the clone and the original produce identical streams from here on
// without affecting each other. This is how Deployment snapshots stay
// replay-equivalent to their originals.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	// 128-bit LCG step: state = state*mul + inc.
	carryHi, carryLo := bits.Mul64(r.lo, mulLo)
	carryHi += r.hi * mulLo
	carryHi += r.lo * mulHi
	lo, c := bits.Add64(carryLo, incLo, 0)
	hi, _ := bits.Add64(carryHi, incHi, c)
	r.hi, r.lo = hi, lo
	// PCG XSL-RR output function.
	xored := hi ^ lo
	rot := uint(hi >> 58)
	return bits.RotateLeft64(xored, -int(rot))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// PointInRect returns a uniform point in rect.
func (r *RNG) PointInRect(rect geom.Rect) geom.Point {
	return geom.Point{
		X: r.Range(rect.Min.X, rect.Max.X),
		Y: r.Range(rect.Min.Y, rect.Max.Y),
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Sample returns k distinct indices chosen uniformly from [0, n). It
// panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	// Partial Fisher–Yates over an index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
