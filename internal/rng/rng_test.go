package rng

import (
	"math"
	"testing"

	"decor/internal/geom"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("split children produced identical first output")
	}
	// Splitting must be deterministic given the parent seed.
	p2 := New(99)
	d1 := p2.Split()
	d2 := p2.Split()
	r1 := New(99)
	e1 := r1.Split()
	if d1.Uint64() != e1.Uint64() {
		t.Error("split not deterministic")
	}
	_ = d2
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sum2 += f * f
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ~1/12", variance)
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Errorf("digit %d count %d far from uniform", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation entry %d", v)
		}
		seen[v] = true
	}
}

func TestSample(t *testing.T) {
	r := New(9)
	s := r.Sample(50, 10)
	if len(s) != 10 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid sample entry %d", v)
		}
		seen[v] = true
	}
	if got := r.Sample(5, 5); len(got) != 5 {
		t.Errorf("full sample size = %d", len(got))
	}
	if got := r.Sample(5, 0); len(got) != 0 {
		t.Errorf("empty sample size = %d", len(got))
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(3, 4) should panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestPointInRect(t *testing.T) {
	r := New(13)
	rect := geom.RectWH(10, 20, 5, 8)
	for i := 0; i < 1000; i++ {
		p := r.PointInRect(rect)
		if !rect.Contains(p) {
			t.Fatalf("point %v outside rect %v", p, rect)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(21)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}
