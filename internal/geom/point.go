// Package geom provides the 2-D geometric primitives used throughout the
// DECOR reproduction: points, vectors, rectangles, disks and segments, plus
// the exact circle–rectangle intersection area needed to convert between
// point-sampled and analytic coverage measures.
//
// All coordinates are float64 in field units. The package has no
// dependencies outside the standard library and is deliberately
// allocation-light: every type is a small value type.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. It doubles as a 2-D vector.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q, treating q as a displacement.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm2 returns the squared Euclidean length of p viewed as a vector.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. Prefer it
// in hot loops: it avoids the sqrt and is exact for comparisons.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Eq reports whether p and q are exactly equal.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Midpoint returns the midpoint of p and q.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }
