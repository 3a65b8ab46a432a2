package geom

import (
	"math"
	"testing"
)

func sane(v float64, lim float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return math.Mod(math.Abs(v), lim)
}

// FuzzIntersectionArea checks the fundamental bounds of the analytic
// circle-rectangle intersection on arbitrary inputs.
func FuzzIntersectionArea(f *testing.F) {
	f.Add(5.0, 5.0, 3.0, 0.0, 0.0, 10.0, 10.0)
	f.Add(0.0, 0.0, 1.0, -1.0, -1.0, 2.0, 2.0)
	f.Add(100.0, 100.0, 50.0, 0.0, 0.0, 10.0, 10.0)
	f.Add(5.0, 0.0, 2.0, 0.0, 0.0, 10.0, 0.0001)
	f.Fuzz(func(t *testing.T, cx, cy, r, rx, ry, rw, rh float64) {
		d := Disk{Center: Point{sane(cx, 1e3), sane(cy, 1e3)}, R: 0.001 + sane(r, 1e3)}
		rect := RectWH(sane(rx, 1e3), sane(ry, 1e3), 0.001+sane(rw, 1e3), 0.001+sane(rh, 1e3))
		a := d.IntersectionArea(rect)
		if math.IsNaN(a) || a < 0 {
			t.Fatalf("invalid area %v for %v ∩ %v", a, d, rect)
		}
		if a > math.Min(d.Area(), rect.Area())*(1+1e-9)+1e-9 {
			t.Fatalf("area %v exceeds min(disk %v, rect %v)", a, d.Area(), rect.Area())
		}
		// Containment extremes.
		if d.Bounds().Intersect(rect).Empty() && a > 1e-9 {
			t.Fatalf("disjoint bounds but area %v", a)
		}
	})
}
