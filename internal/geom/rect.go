package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle with Min at the lower-left corner and
// Max at the upper-right corner. A Rect with Max <= Min in either axis is
// empty.
type Rect struct {
	Min, Max Point
}

// RectWH returns the rectangle with lower-left corner (x, y), width w and
// height h.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Point{x, y}, Point{x + w, y + h}}
}

// Square returns the axis-aligned square [0,side]×[0,side]; the standard
// DECOR field is Square(100).
func Square(side float64) Rect { return RectWH(0, 0, side, side) }

// W returns the width of r (0 if empty).
func (r Rect) W() float64 { return math.Max(0, r.Max.X-r.Min.X) }

// H returns the height of r (0 if empty).
func (r Rect) H() float64 { return math.Max(0, r.Max.Y-r.Min.Y) }

// Area returns the area of r (0 if empty).
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether r encloses no area.
func (r Rect) Empty() bool { return r.Max.X <= r.Min.X || r.Max.Y <= r.Min.Y }

// Center returns the center point of r.
func (r Rect) Center() Point { return Midpoint(r.Min, r.Max) }

// Contains reports whether p lies inside r (closed on Min edges, closed on
// Max edges: DECOR sample points on the field boundary count as inside).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersect returns the intersection of r and s, which may be empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Inset shrinks r by d on every side; a negative d grows it.
func (r Rect) Inset(d float64) Rect {
	out := Rect{
		Min: Point{r.Min.X + d, r.Min.Y + d},
		Max: Point{r.Max.X - d, r.Max.Y - d},
	}
	if out.Empty() {
		return Rect{Min: r.Center(), Max: r.Center()}
	}
	return out
}

// Clamp returns the point of r closest to p (p itself if inside).
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// DistToPoint returns the Euclidean distance from p to the rectangle
// (0 if p is inside).
func (r Rect) DistToPoint(p Point) float64 { return p.Dist(r.Clamp(p)) }

// Corners returns the four corners of r in counter-clockwise order
// starting from Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}
