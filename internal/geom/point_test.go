package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// near reports whether p and q are within eps of each other in both
// coordinates.
func near(p, q Point, eps float64) bool {
	return almostEq(p.X, q.X, eps) && almostEq(p.Y, q.Y, eps)
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(4, 6)
	if got := p.Add(q); !got.Eq(Pt(5, 8)) {
		t.Errorf("Add = %v, want (5,8)", got)
	}
	if got := q.Sub(p); !got.Eq(Pt(3, 4)) {
		t.Errorf("Sub = %v, want (3,4)", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
	if got := p.Dot(q); got != 16 {
		t.Errorf("Dot = %v, want 16", got)
	}
}

func TestDistMatchesDist2(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Keep magnitudes sane to avoid overflow in the square.
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		d := a.Dist(b)
		return almostEq(d*d, a.Dist2(b), 1e-6*(1+a.Dist2(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(math.Mod(ax, 1e3), math.Mod(ay, 1e3))
		b := Pt(math.Mod(bx, 1e3), math.Mod(by, 1e3))
		c := Pt(math.Mod(cx, 1e3), math.Mod(cy, 1e3))
		if !almostEq(a.Dist(b), b.Dist(a), 1e-9) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	p, q := Pt(1, 1), Pt(5, -3)
	if !p.Lerp(q, 0).Eq(p) {
		t.Error("Lerp(0) != p")
	}
	if !p.Lerp(q, 1).Eq(q) {
		t.Error("Lerp(1) != q")
	}
	if got := p.Lerp(q, 0.5); !got.Eq(Midpoint(p, q)) {
		t.Errorf("Lerp(0.5) = %v, want midpoint", got)
	}
}
