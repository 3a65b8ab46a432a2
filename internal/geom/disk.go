package geom

import (
	"fmt"
	"math"
)

// Disk is a closed disk: the set of points within distance R of Center.
// In DECOR a sensor's coverage region is a Disk with R = rs and its
// communication region a Disk with R = rc.
type Disk struct {
	Center Point
	R      float64
}

// DiskAt is shorthand for Disk{Point{x, y}, r}.
func DiskAt(x, y, r float64) Disk { return Disk{Point{x, y}, r} }

// Area returns the area of d.
func (d Disk) Area() float64 { return math.Pi * d.R * d.R }

// Contains reports whether p lies in the closed disk.
func (d Disk) Contains(p Point) bool { return d.Center.Dist2(p) <= d.R*d.R }

// IntersectsRect reports whether the closed disk intersects the rectangle.
func (d Disk) IntersectsRect(r Rect) bool {
	return r.DistToPoint(d.Center) <= d.R
}

// PointAt returns the boundary point of d at angle theta (radians).
func (d Disk) PointAt(theta float64) Point {
	return Point{d.Center.X + d.R*math.Cos(theta), d.Center.Y + d.R*math.Sin(theta)}
}

// String implements fmt.Stringer.
func (d Disk) String() string { return fmt.Sprintf("disk(%s, r=%.3f)", d.Center, d.R) }

// IntersectionArea returns the exact area of d ∩ r. It is used to convert
// the point-sampled coverage fraction into an analytic one (tests validate
// the low-discrepancy approximation against it).
//
// The computation reduces the problem to the signed "quarter-plane" area
// A(X, Y) of the region {x <= X, y <= Y} inside the disk translated to the
// origin, combined by inclusion–exclusion over the rectangle corners.
func (d Disk) IntersectionArea(r Rect) float64 {
	if r.Empty() || d.R <= 0 {
		return 0
	}
	// Translate so the disk is centered at the origin.
	x1, y1 := r.Min.X-d.Center.X, r.Min.Y-d.Center.Y
	x2, y2 := r.Max.X-d.Center.X, r.Max.Y-d.Center.Y
	R := d.R
	a := quarterPlaneArea(x2, y2, R) - quarterPlaneArea(x1, y2, R) -
		quarterPlaneArea(x2, y1, R) + quarterPlaneArea(x1, y1, R)
	if a < 0 {
		a = 0
	}
	max := math.Min(r.Area(), d.Area())
	if a > max {
		a = max
	}
	return a
}

// quarterPlaneArea returns the area of {(x, y): x <= X, y <= Y} ∩ disk of
// radius R centered at the origin.
func quarterPlaneArea(X, Y, R float64) float64 {
	if X <= -R || Y <= -R {
		return 0
	}
	if X >= R && Y >= R {
		return math.Pi * R * R
	}
	// Area under the constraint x <= X within the disk, further clipped by
	// y <= Y. Decompose: area(x<=X, y<=Y) =
	//   area(y<=Y) - area(x>X, y<=Y).
	// area(x>X, y<=Y) is a circular region bounded by a vertical and a
	// horizontal chord; integrate analytically.
	return halfPlaneArea(Y, R) - cornerArea(X, Y, R)
}

// halfPlaneArea returns the area of {y <= Y} ∩ disk radius R at origin.
func halfPlaneArea(Y, R float64) float64 {
	if Y <= -R {
		return 0
	}
	if Y >= R {
		return math.Pi * R * R
	}
	// Area of circular segment below the chord y = Y.
	// Integral form: R^2*acos(-Y/R) + Y*sqrt(R^2-Y^2)... derive:
	// area(y<=Y) = ∫ over y from -R to Y of 2*sqrt(R²-y²) dy
	//            = [y*sqrt(R²-y²) + R²*asin(y/R)] from -R to Y
	return Y*math.Sqrt(R*R-Y*Y) + R*R*math.Asin(clamp(Y/R, -1, 1)) + math.Pi*R*R/2
}

// cornerArea returns the area of {x > X, y <= Y} ∩ disk radius R at origin.
func cornerArea(X, Y, R float64) float64 {
	if X >= R || Y <= -R {
		return 0
	}
	if X <= -R {
		return halfPlaneArea(Y, R)
	}
	// Integrate over x from max(X,-R) to R the vertical extent of the disk
	// clipped to y <= Y: min(Y, +sqrt(R²-x²)) - (-sqrt(R²-x²)), when
	// positive.
	// Split at the x where sqrt(R²-x²) == |Y|.
	lo := math.Max(X, -R)
	if Y >= R {
		// Full half-disk strip to the right of X.
		return stripArea(lo, R, R)
	}
	if Y >= 0 {
		// For |x| <= xc the circle top is above Y (clip to Y); beyond xc
		// the full chord applies.
		xc := math.Sqrt(R*R - Y*Y)
		area := 0.0
		// Region with clipping (|x| < xc): height = Y + sqrt(R²-x²).
		cliplo, cliphi := lo, xc
		if cliplo < -xc {
			cliplo = -xc
		}
		if cliplo < cliphi {
			area += Y*(cliphi-cliplo) + halfChordIntegral(cliplo, cliphi, R)
		}
		// Right cap beyond xc: full vertical chord 2*sqrt(R²-x²).
		caplo := math.Max(lo, xc)
		if caplo < R {
			area += 2 * halfChordIntegral(caplo, R, R)
		}
		// Left cap (x in [lo, -xc)) exists only if lo < -xc: full chord too.
		if lo < -xc {
			area += 2 * halfChordIntegral(lo, -xc, R)
		}
		return area
	}
	// Y < 0: region is the sliver below y = Y and right of x = X.
	// Height = Y + sqrt(R²-x²) where positive, i.e. |x| <= sqrt(R²-Y²).
	xc := math.Sqrt(R*R - Y*Y)
	a := math.Max(lo, -xc)
	b := xc
	if a >= b {
		return 0
	}
	return Y*(b-a) + halfChordIntegral(a, b, R)
}

// stripArea returns the area of the disk (radius R at origin) between
// vertical lines x = a and x = b.
func stripArea(a, b, R float64) float64 {
	a = clamp(a, -R, R)
	b = clamp(b, -R, R)
	if a >= b {
		return 0
	}
	return 2 * halfChordIntegral(a, b, R)
}

// halfChordIntegral returns ∫_a^b sqrt(R²-x²) dx for -R <= a <= b <= R.
func halfChordIntegral(a, b, R float64) float64 {
	f := func(x float64) float64 {
		x = clamp(x, -R, R)
		return 0.5 * (x*math.Sqrt(R*R-x*x) + R*R*math.Asin(clamp(x/R, -1, 1)))
	}
	return f(b) - f(a)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
