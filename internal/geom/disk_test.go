package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiskContains(t *testing.T) {
	d := DiskAt(0, 0, 4)
	if !d.Contains(Pt(0, 0)) || !d.Contains(Pt(4, 0)) || !d.Contains(Pt(2.8, 2.8)) {
		t.Error("points inside reported outside")
	}
	if d.Contains(Pt(4.001, 0)) || d.Contains(Pt(3, 3)) {
		t.Error("points outside reported inside")
	}
}

func TestDiskIntersectsRect(t *testing.T) {
	r := Square(10)
	if !DiskAt(5, 5, 1).IntersectsRect(r) {
		t.Error("interior disk should intersect")
	}
	if !DiskAt(-1, 5, 1.5).IntersectsRect(r) {
		t.Error("edge-overlapping disk should intersect")
	}
	if DiskAt(-3, -3, 1).IntersectsRect(r) {
		t.Error("far disk should not intersect")
	}
	// Corner case: distance to corner exactly r.
	if !DiskAt(-3, -4, 5).IntersectsRect(r) {
		t.Error("corner-tangent disk should intersect")
	}
}

// Bounds returns the axis-aligned bounding box of d: the sampling box
// and disjointness oracle of the intersection-area tests.
func (d Disk) Bounds() Rect {
	return Rect{
		Min: Point{d.Center.X - d.R, d.Center.Y - d.R},
		Max: Point{d.Center.X + d.R, d.Center.Y + d.R},
	}
}

func TestDiskBounds(t *testing.T) {
	b := DiskAt(3, 4, 2).Bounds()
	if !b.Min.Eq(Pt(1, 2)) || !b.Max.Eq(Pt(5, 6)) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestIntersectionAreaExactCases(t *testing.T) {
	r := Square(10)
	// Disk fully inside.
	if got := DiskAt(5, 5, 2).IntersectionArea(r); !almostEq(got, 4*math.Pi, 1e-9) {
		t.Errorf("inside = %v, want 4pi", got)
	}
	// Rect fully inside huge disk.
	if got := DiskAt(5, 5, 100).IntersectionArea(r); !almostEq(got, 100, 1e-9) {
		t.Errorf("covering disk = %v, want 100", got)
	}
	// Disk fully outside.
	if got := DiskAt(-50, -50, 2).IntersectionArea(r); got != 0 {
		t.Errorf("outside = %v, want 0", got)
	}
	// Half disk: center on an edge.
	if got := DiskAt(0, 5, 2).IntersectionArea(r); !almostEq(got, 2*math.Pi, 1e-9) {
		t.Errorf("half = %v, want 2pi", got)
	}
	// Quarter disk: center on a corner.
	if got := DiskAt(0, 0, 2).IntersectionArea(r); !almostEq(got, math.Pi, 1e-9) {
		t.Errorf("quarter = %v, want pi", got)
	}
	// Zero radius.
	if got := DiskAt(5, 5, 0).IntersectionArea(r); got != 0 {
		t.Errorf("zero radius = %v, want 0", got)
	}
	// Empty rect.
	if got := DiskAt(0, 0, 1).IntersectionArea(Rect{}); got != 0 {
		t.Errorf("empty rect = %v, want 0", got)
	}
}

// TestIntersectionAreaMonteCarlo cross-validates the analytic area against
// Monte Carlo sampling over random configurations.
func TestIntersectionAreaMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const samples = 200_000
	for trial := 0; trial < 12; trial++ {
		d := Disk{Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5}, 0.5 + rng.Float64()*6}
		r := RectWH(rng.Float64()*8, rng.Float64()*8, 1+rng.Float64()*8, 1+rng.Float64()*8)
		want := d.IntersectionArea(r)
		// Sample within the disk's bounding box intersected with r.
		box := d.Bounds().Intersect(r)
		if box.Empty() {
			if want > 1e-9 {
				t.Errorf("trial %d: empty box but analytic area %v", trial, want)
			}
			continue
		}
		hits := 0
		for i := 0; i < samples; i++ {
			p := Point{box.Min.X + rng.Float64()*box.W(), box.Min.Y + rng.Float64()*box.H()}
			if d.Contains(p) {
				hits++
			}
		}
		got := float64(hits) / samples * box.Area()
		tol := 4 * box.Area() / math.Sqrt(samples) // ~4 sigma
		if math.Abs(got-want) > tol {
			t.Errorf("trial %d: analytic %v vs MC %v (tol %v) disk=%v rect=%v",
				trial, want, got, tol, d, r)
		}
	}
}

// Property: intersection area is within [0, min(diskArea, rectArea)] and
// translation-invariant.
func TestIntersectionAreaProperties(t *testing.T) {
	f := func(cx, cy, rr, rx, ry, rw, rh, tx, ty float64) bool {
		m := func(v, lim float64) float64 { return math.Mod(math.Abs(v), lim) }
		d := Disk{Point{m(cx, 50), m(cy, 50)}, 0.1 + m(rr, 10)}
		r := RectWH(m(rx, 50), m(ry, 50), 0.1+m(rw, 20), 0.1+m(rh, 20))
		a := d.IntersectionArea(r)
		if a < 0 || a > math.Min(d.Area(), r.Area())+1e-9 {
			return false
		}
		// Translation invariance.
		dx, dy := m(tx, 100)-50, m(ty, 100)-50
		d2 := Disk{Point{d.Center.X + dx, d.Center.Y + dy}, d.R}
		r2 := Rect{Point{r.Min.X + dx, r.Min.Y + dy}, Point{r.Max.X + dx, r.Max.Y + dy}}
		return almostEq(a, d2.IntersectionArea(r2), 1e-6*(1+a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPointAt(t *testing.T) {
	d := DiskAt(1, 1, 2)
	p := d.PointAt(0)
	if !near(p, Pt(3, 1), 1e-12) {
		t.Errorf("PointAt(0) = %v", p)
	}
	p = d.PointAt(math.Pi / 2)
	if !near(p, Pt(1, 3), 1e-12) {
		t.Errorf("PointAt(pi/2) = %v", p)
	}
}
