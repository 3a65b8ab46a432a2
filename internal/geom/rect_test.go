package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := RectWH(1, 2, 3, 4)
	if r.W() != 3 || r.H() != 4 || r.Area() != 12 {
		t.Errorf("W/H/Area = %v/%v/%v", r.W(), r.H(), r.Area())
	}
	if !r.Center().Eq(Pt(2.5, 4)) {
		t.Errorf("Center = %v", r.Center())
	}
	if r.Empty() {
		t.Error("rect should not be empty")
	}
	if !(Rect{}).Empty() {
		t.Error("zero rect should be empty")
	}
}

func TestRectContains(t *testing.T) {
	r := Square(10)
	cases := []struct {
		p  Point
		in bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},
		{Pt(10, 10), true}, // on the Max edge: closed
		{Pt(10, 5), true},
		{Pt(-0.001, 5), false},
		{Pt(5, 10.001), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.in {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := RectWH(0, 0, 4, 4)
	b := RectWH(2, 2, 4, 4)
	got := a.Intersect(b)
	if !got.Min.Eq(Pt(2, 2)) || !got.Max.Eq(Pt(4, 4)) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Intersect(RectWH(10, 10, 1, 1)).Empty() {
		t.Error("disjoint rects should intersect to empty")
	}
}

func TestRectClampAndDist(t *testing.T) {
	r := Square(10)
	if !r.Clamp(Pt(5, 5)).Eq(Pt(5, 5)) {
		t.Error("Clamp inside should be identity")
	}
	if !r.Clamp(Pt(-3, 5)).Eq(Pt(0, 5)) {
		t.Error("Clamp left failed")
	}
	if !r.Clamp(Pt(12, 14)).Eq(Pt(10, 10)) {
		t.Error("Clamp corner failed")
	}
	if got := r.DistToPoint(Pt(13, 14)); !almostEq(got, 5, 1e-12) {
		t.Errorf("DistToPoint = %v, want 5", got)
	}
	if got := r.DistToPoint(Pt(3, 3)); got != 0 {
		t.Errorf("DistToPoint inside = %v, want 0", got)
	}
}

func TestRectInset(t *testing.T) {
	r := Square(10).Inset(2)
	if !r.Min.Eq(Pt(2, 2)) || !r.Max.Eq(Pt(8, 8)) {
		t.Errorf("Inset = %v", r)
	}
	// Over-inset collapses to center.
	c := Square(10).Inset(6)
	if c.Area() != 0 {
		t.Errorf("over-inset area = %v, want 0", c.Area())
	}
	g := Square(10).Inset(-1)
	if !g.Min.Eq(Pt(-1, -1)) || !g.Max.Eq(Pt(11, 11)) {
		t.Errorf("negative inset = %v", g)
	}
}

func TestRectCorners(t *testing.T) {
	c := RectWH(0, 0, 2, 3).Corners()
	want := [4]Point{{0, 0}, {2, 0}, {2, 3}, {0, 3}}
	if c != want {
		t.Errorf("Corners = %v", c)
	}
}

// Property: Intersect result is contained in both operands.
func TestRectIntersectProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		a := RectWH(norm(ax), norm(ay), norm(aw), norm(ah))
		b := RectWH(norm(bx), norm(by), norm(bw), norm(bh))
		in := a.Intersect(b)
		if !in.Empty() {
			if in.Area() > a.Area()+1e-9 || in.Area() > b.Area()+1e-9 {
				return false
			}
			if !a.Contains(in.Center()) || !b.Contains(in.Center()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
