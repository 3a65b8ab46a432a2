package geom

import "math"

// Segment is the closed line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the length of s.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// ClosestPoint returns the point on s closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	ab := s.B.Sub(s.A)
	denom := ab.Norm2()
	if denom == 0 {
		return s.A
	}
	t := clamp(p.Sub(s.A).Dot(ab)/denom, 0, 1)
	return s.A.Lerp(s.B, t)
}

// DistToPoint returns the distance from p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// Intersect returns the intersection point of segments s and t and whether
// they properly intersect (including endpoint touching within eps).
func (s Segment) Intersect(t Segment) (Point, bool) {
	r := s.B.Sub(s.A)
	q := t.B.Sub(t.A)
	denom := r.Cross(q)
	diff := t.A.Sub(s.A)
	const eps = 1e-12
	if math.Abs(denom) < eps {
		return Point{}, false // parallel or collinear: treated as no single intersection
	}
	u := diff.Cross(q) / denom
	v := diff.Cross(r) / denom
	if u < -eps || u > 1+eps || v < -eps || v > 1+eps {
		return Point{}, false
	}
	return s.A.Add(r.Scale(u)), true
}
