package geom

import (
	"testing"
)

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	cases := []struct {
		p, want Point
	}{
		{Pt(5, 3), Pt(5, 0)},
		{Pt(-2, 1), Pt(0, 0)},
		{Pt(14, -2), Pt(10, 0)},
		{Pt(3, 0), Pt(3, 0)},
	}
	for _, c := range cases {
		if got := s.ClosestPoint(c.p); !near(got, c.want, 1e-12) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Degenerate segment.
	d := Segment{Pt(2, 2), Pt(2, 2)}
	if got := d.ClosestPoint(Pt(9, 9)); !got.Eq(Pt(2, 2)) {
		t.Errorf("degenerate ClosestPoint = %v", got)
	}
}

func TestSegmentDistAndDisk(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if got := s.DistToPoint(Pt(5, 3)); !almostEq(got, 3, 1e-12) {
		t.Errorf("DistToPoint = %v", got)
	}
	if s.DistToPoint(Pt(5, 2)) > 2 {
		t.Error("a tangent disk should reach the segment")
	}
	if s.DistToPoint(Pt(5, 3)) <= 2 {
		t.Error("a distant disk should not reach the segment")
	}
	if s.Len() != 10 {
		t.Errorf("Len = %v", s.Len())
	}
}

func TestSegmentIntersect(t *testing.T) {
	a := Segment{Pt(0, 0), Pt(4, 4)}
	b := Segment{Pt(0, 4), Pt(4, 0)}
	p, ok := a.Intersect(b)
	if !ok || !near(p, Pt(2, 2), 1e-12) {
		t.Errorf("Intersect = %v, %v", p, ok)
	}
	// Parallel.
	c := Segment{Pt(0, 1), Pt(4, 5)}
	if _, ok := a.Intersect(c); ok {
		t.Error("parallel segments should not intersect")
	}
	// Non-overlapping.
	d := Segment{Pt(10, 0), Pt(10, 5)}
	if _, ok := a.Intersect(d); ok {
		t.Error("disjoint segments should not intersect")
	}
}
