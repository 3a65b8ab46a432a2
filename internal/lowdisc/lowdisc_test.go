package lowdisc

import (
	"math"
	"testing"
	"testing/quick"

	"decor/internal/geom"
)

func TestRadicalInverseBase2(t *testing.T) {
	cases := []struct {
		i    uint64
		want float64
	}{
		{0, 0}, {1, 0.5}, {2, 0.25}, {3, 0.75},
		{4, 0.125}, {5, 0.625}, {6, 0.375}, {7, 0.875},
	}
	for _, c := range cases {
		if got := RadicalInverse(2, c.i); got != c.want {
			t.Errorf("RadicalInverse(2, %d) = %v, want %v", c.i, got, c.want)
		}
	}
}

func TestRadicalInverseBase3(t *testing.T) {
	cases := []struct {
		i    uint64
		want float64
	}{
		{1, 1.0 / 3}, {2, 2.0 / 3}, {3, 1.0 / 9}, {4, 4.0 / 9}, {5, 7.0 / 9},
	}
	for _, c := range cases {
		if got := RadicalInverse(3, c.i); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("RadicalInverse(3, %d) = %v, want %v", c.i, got, c.want)
		}
	}
}

func TestRadicalInverseRange(t *testing.T) {
	f := func(base uint8, i uint32) bool {
		b := uint64(base%14) + 2
		v := RadicalInverse(b, uint64(i))
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRadicalInversePanicsOnBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("base 1 should panic")
		}
	}()
	RadicalInverse(1, 5)
}

func allInside(t *testing.T, name string, pts []geom.Point, rect geom.Rect) {
	t.Helper()
	for i, p := range pts {
		if !rect.Contains(p) {
			t.Fatalf("%s: point %d = %v outside %v", name, i, p, rect)
		}
	}
}

func generators() []Generator {
	return []Generator{
		Halton{}, Hammersley{}, Sobol2D{},
		Uniform{Seed: 1}, Jittered{Seed: 1}, LatinHypercube{Seed: 1},
	}
}

func TestGeneratorsProduceNPointsInside(t *testing.T) {
	rect := geom.RectWH(10, -5, 30, 40)
	for _, g := range generators() {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			pts := g.Points(n, rect)
			if len(pts) != n {
				t.Errorf("%s: len = %d, want %d", g.Name(), len(pts), n)
			}
			allInside(t, g.Name(), pts, rect)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	rect := geom.Square(100)
	for _, g := range generators() {
		a := g.Points(200, rect)
		b := g.Points(200, rect)
		for i := range a {
			if !a[i].Eq(b[i]) {
				t.Errorf("%s: non-deterministic at %d", g.Name(), i)
				break
			}
		}
	}
}

func TestHaltonDistinctPoints(t *testing.T) {
	pts := Halton{}.Points(2000, geom.Square(100))
	seen := map[geom.Point]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate Halton point %v", p)
		}
		seen[p] = true
	}
}

func TestHaltonSkip(t *testing.T) {
	base := Halton{}.Points(10, geom.Square(1))
	skipped := Halton{Skip: 3}.Points(7, geom.Square(1))
	for i := range skipped {
		if !skipped[i].Eq(base[i+3]) {
			t.Errorf("skip mismatch at %d: %v vs %v", i, skipped[i], base[i+3])
		}
	}
}

func TestHammersleyFirstCoordStratified(t *testing.T) {
	n := 100
	pts := Hammersley{}.Points(n, geom.Square(1))
	for i, p := range pts {
		want := (float64(i) + 0.5) / float64(n)
		if math.Abs(p.X-want) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", i, p.X, want)
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	n := 64
	pts := LatinHypercube{Seed: 5}.Points(n, geom.Square(1))
	seenX := make([]bool, n)
	seenY := make([]bool, n)
	for _, p := range pts {
		ix := int(p.X * float64(n))
		iy := int(p.Y * float64(n))
		if ix >= n {
			ix = n - 1
		}
		if iy >= n {
			iy = n - 1
		}
		if seenX[ix] {
			t.Fatalf("x stratum %d hit twice", ix)
		}
		if seenY[iy] {
			t.Fatalf("y stratum %d hit twice", iy)
		}
		seenX[ix] = true
		seenY[iy] = true
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"halton", "hammersley", "sobol", "uniform", "jittered", "lhs"} {
		g, err := ByName(name, 42)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, g.Name())
		}
	}
	if _, err := ByName("nope", 0); err == nil {
		t.Error("unknown name should error")
	}
}

// Area-approximation property the paper relies on: the fraction of Halton
// points inside any disk approximates the disk's area fraction well.
func TestHaltonApproximatesDiskArea(t *testing.T) {
	rect := geom.Square(100)
	pts := Halton{}.Points(2000, rect)
	disks := []geom.Disk{
		geom.DiskAt(50, 50, 20),
		geom.DiskAt(10, 90, 15),
		geom.DiskAt(30, 40, 4), // the paper's rs
		geom.DiskAt(95, 5, 10),
	}
	for _, d := range disks {
		in := 0
		for _, p := range pts {
			if d.Contains(p) {
				in++
			}
		}
		got := float64(in) / float64(len(pts))
		want := d.IntersectionArea(rect) / rect.Area()
		// With 2000 low-discrepancy points the isotropic error for smooth
		// sets is small; allow 1.5 percentage points.
		if math.Abs(got-want) > 0.015 {
			t.Errorf("disk %v: point fraction %v vs area fraction %v", d, got, want)
		}
	}
}

// Chi-square uniformity: dividing the unit square into a 8x8 grid, the
// Halton counts per cell must be near-uniform — far more uniform than a
// random set's typical chi-square statistic.
func TestHaltonChiSquareUniformity(t *testing.T) {
	const n, grid = 2048, 8
	expect := float64(n) / (grid * grid)
	chi2 := func(pts []geom.Point) float64 {
		counts := make([]int, grid*grid)
		for _, p := range pts {
			cx := int(p.X * grid)
			cy := int(p.Y * grid)
			if cx >= grid {
				cx = grid - 1
			}
			if cy >= grid {
				cy = grid - 1
			}
			counts[cy*grid+cx]++
		}
		sum := 0.0
		for _, c := range counts {
			d := float64(c) - expect
			sum += d * d / expect
		}
		return sum
	}
	unit := geom.Square(1)
	h := chi2(Halton{}.Points(n, unit))
	// 63 degrees of freedom: a uniform-random sample has E[chi2] = 63.
	// Halton's stratification should land far below.
	if h > 30 {
		t.Errorf("halton chi2 = %v, expected well below the random mean 63", h)
	}
	worstRandom := 0.0
	for seed := uint64(1); seed <= 3; seed++ {
		if c := chi2(Uniform{Seed: seed}.Points(n, unit)); c > worstRandom {
			worstRandom = c
		}
	}
	if h >= worstRandom {
		t.Errorf("halton chi2 %v not below random %v", h, worstRandom)
	}
}
