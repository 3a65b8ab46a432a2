// Package lowdisc implements the low-discrepancy point sequences at the
// heart of DECOR's uncovered-area representation (paper §3.2), plus
// reference generators (uniform random, jittered grid, Latin hypercube)
// and star-discrepancy measurement used to validate the choice.
//
// The paper approximates the monitored field with N = 2000 Halton points
// and reports that Hammersley points behave the same. Low-discrepancy sets
// approximate area with error O(log^d N / N) versus O(sqrt(log log N / N))
// for random points, which is why a small N suffices to certify
// k-coverage.
package lowdisc

import (
	"fmt"
	"sort"

	"decor/internal/geom"
	"decor/internal/rng"
)

// Generator produces n points inside a rectangle. Implementations are
// deterministic: the same (n, rect) always yields the same points (random
// generators are seeded explicitly at construction).
type Generator interface {
	// Name identifies the generator in experiment output.
	Name() string
	// Points returns n points inside rect.
	Points(n int, rect geom.Rect) []geom.Point
}

// RadicalInverse returns the radical inverse of i in the given base: the
// digits of i are mirrored around the radix point, yielding a value in
// [0, 1). It is the building block of the van der Corput, Halton and
// Hammersley sequences.
func RadicalInverse(base, i uint64) float64 {
	if base < 2 {
		panic("lowdisc: RadicalInverse base must be >= 2")
	}
	inv := 1.0 / float64(base)
	result := 0.0
	f := inv
	for i > 0 {
		result += float64(i%base) * f
		i /= base
		f *= inv
	}
	return result
}

// Halton is the 2-D Halton sequence with the given coprime bases
// (default 2 and 3). It is the paper's primary field approximation.
type Halton struct {
	BaseX, BaseY uint64
	// Skip discards the first Skip elements (a common remedy for early
	// correlations; the paper does not mention skipping, so it defaults
	// to 0).
	Skip uint64
}

// Name implements Generator.
func (h Halton) Name() string { return "halton" }

// Points implements Generator.
func (h Halton) Points(n int, rect geom.Rect) []geom.Point {
	bx, by := h.BaseX, h.BaseY
	if bx == 0 {
		bx = 2
	}
	if by == 0 {
		by = 3
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		idx := uint64(i) + h.Skip + 1 // start at 1: the 0th element is (0,0)
		pts[i] = geom.Point{
			X: rect.Min.X + RadicalInverse(bx, idx)*rect.W(),
			Y: rect.Min.Y + RadicalInverse(by, idx)*rect.H(),
		}
	}
	return pts
}

// Hammersley is the 2-D Hammersley set: first coordinate i/N, second the
// radical inverse in the given base (default 2). Unlike Halton it needs N
// up front, which is fine for DECOR where the field resolution is fixed.
type Hammersley struct {
	Base uint64
}

// Name implements Generator.
func (h Hammersley) Name() string { return "hammersley" }

// Points implements Generator.
func (h Hammersley) Points(n int, rect geom.Rect) []geom.Point {
	b := h.Base
	if b == 0 {
		b = 2
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: rect.Min.X + (float64(i)+0.5)/float64(n)*rect.W(),
			Y: rect.Min.Y + RadicalInverse(b, uint64(i)+1)*rect.H(),
		}
	}
	return pts
}

// Sobol2D is the first two dimensions of the Sobol' sequence with the
// standard Joe–Kuo direction numbers, generated via Gray code.
type Sobol2D struct{}

// Name implements Generator.
func (Sobol2D) Name() string { return "sobol" }

// Points implements Generator.
func (Sobol2D) Points(n int, rect geom.Rect) []geom.Point {
	const bitCount = 32
	// Direction numbers. Dimension 1: v_j = 1/2^j (van der Corput).
	// Dimension 2: primitive polynomial x^2 + x + 1 (s=1, a=0, m1=1).
	var v1, v2 [bitCount + 1]uint32
	for j := 1; j <= bitCount; j++ {
		v1[j] = 1 << (32 - uint(j))
	}
	v2[1] = 1 << 31
	for j := 2; j <= bitCount; j++ {
		v2[j] = v2[j-1] ^ (v2[j-1] >> 1)
	}
	pts := make([]geom.Point, n)
	var x1, x2 uint32
	for i := 0; i < n; i++ {
		// Gray-code construction: flip the direction of the lowest zero
		// bit of i.
		c := uint(1)
		for ii := uint64(i); ii&1 == 1; ii >>= 1 {
			c++
		}
		x1 ^= v1[c]
		x2 ^= v2[c]
		pts[i] = geom.Point{
			X: rect.Min.X + float64(x1)/float64(1<<32)*rect.W(),
			Y: rect.Min.Y + float64(x2)/float64(1<<32)*rect.H(),
		}
	}
	return pts
}

// Uniform generates independent uniform random points, the paper's
// strawman comparison for field approximation.
type Uniform struct {
	Seed uint64
}

// Name implements Generator.
func (Uniform) Name() string { return "uniform" }

// Points implements Generator.
func (u Uniform) Points(n int, rect geom.Rect) []geom.Point {
	r := rng.New(u.Seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = r.PointInRect(rect)
	}
	return pts
}

// Jittered generates a stratified (jittered-grid) sample: the rectangle is
// divided into roughly n cells and one uniform point is drawn per cell.
type Jittered struct {
	Seed uint64
}

// Name implements Generator.
func (Jittered) Name() string { return "jittered" }

// Points implements Generator.
func (j Jittered) Points(n int, rect geom.Rect) []geom.Point {
	r := rng.New(j.Seed)
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	cw, ch := rect.W()/float64(cols), rect.H()/float64(rows)
	pts := make([]geom.Point, 0, n)
	for i := 0; i < rows && len(pts) < n; i++ {
		for c := 0; c < cols && len(pts) < n; c++ {
			pts = append(pts, geom.Point{
				X: rect.Min.X + (float64(c)+r.Float64())*cw,
				Y: rect.Min.Y + (float64(i)+r.Float64())*ch,
			})
		}
	}
	return pts
}

// LatinHypercube generates a Latin hypercube sample: each axis is divided
// into n strata and every stratum is hit exactly once per axis.
type LatinHypercube struct {
	Seed uint64
}

// Name implements Generator.
func (LatinHypercube) Name() string { return "lhs" }

// Points implements Generator.
func (l LatinHypercube) Points(n int, rect geom.Rect) []geom.Point {
	r := rng.New(l.Seed)
	permX := r.Perm(n)
	permY := r.Perm(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: rect.Min.X + (float64(permX[i])+r.Float64())/float64(n)*rect.W(),
			Y: rect.Min.Y + (float64(permY[i])+r.Float64())/float64(n)*rect.H(),
		}
	}
	return pts
}

// byName maps every name ByName accepts to its constructor.
var byName = map[string]func(seed uint64) Generator{
	"halton":           func(uint64) Generator { return Halton{} },
	"hammersley":       func(uint64) Generator { return Hammersley{} },
	"sobol":            func(uint64) Generator { return Sobol2D{} },
	"uniform":          func(seed uint64) Generator { return Uniform{Seed: seed} },
	"jittered":         func(seed uint64) Generator { return Jittered{Seed: seed} },
	"lhs":              func(seed uint64) Generator { return LatinHypercube{Seed: seed} },
	"faure":            func(uint64) Generator { return Faure2D{} },
	"halton-scrambled": func(seed uint64) Generator { return ScrambledHalton{Seed: seed} },
}

// ByName returns the generator with the given name, one of Names;
// seeded generators use the provided seed. Generators are comparable
// values, and two built from different seeds compare equal exactly
// when the generator ignores its seed.
func ByName(name string, seed uint64) (Generator, error) {
	if mk, ok := byName[name]; ok {
		return mk(seed), nil
	}
	return nil, fmt.Errorf("lowdisc: unknown generator %q", name)
}

// Names lists the generator names ByName accepts, sorted.
func Names() []string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
