package index

import (
	"sort"
	"testing"

	"decor/internal/geom"
	"decor/internal/rng"
)

func randomPointGrid(n int, side, cell float64, seed uint64) (*Grid, []geom.Point) {
	r := rng.New(seed)
	g := NewGrid(geom.Square(side), cell)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = r.PointInRect(geom.Square(side))
		g.Insert(i, pts[i])
	}
	return g, pts
}

func TestAppendBallMatchesBall(t *testing.T) {
	g, pts := randomPointGrid(300, 50, 4, 11)
	buf := make([]int, 0, 64)
	r := rng.New(12)
	for trial := 0; trial < 50; trial++ {
		c := r.PointInRect(geom.Square(50))
		rad := r.Float64() * 10
		want := g.Ball(c, rad)
		buf = g.AppendBall(buf[:0], c, rad)
		got := append([]int(nil), buf...)
		sort.Ints(want)
		sort.Ints(got)
		if len(want) != len(got) {
			t.Fatalf("trial %d: AppendBall %d ids, Ball %d", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: id mismatch at %d", trial, i)
			}
		}
	}
	_ = pts
}

func TestAppendBallNegativeRadiusAndPrefix(t *testing.T) {
	g, _ := randomPointGrid(20, 10, 2, 3)
	if got := g.AppendBall(nil, geom.Pt(5, 5), -1); len(got) != 0 {
		t.Errorf("negative radius should append nothing, got %v", got)
	}
	// Existing dst contents survive as a prefix.
	dst := []int{-7}
	dst = g.AppendBall(dst, geom.Pt(5, 5), 3)
	if dst[0] != -7 || len(dst) < 2 {
		t.Errorf("prefix not preserved: %v", dst)
	}
}

func TestNeighborhoodsMatchBall(t *testing.T) {
	const n = 250
	g, pts := randomPointGrid(n, 40, 4, 21)
	nb := g.BuildNeighborhoods(n, 4)
	if nb.Len() != n {
		t.Fatalf("Len = %d, want %d", nb.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := g.Ball(pts[i], 4)
		sort.Ints(want)
		got := nb.At(i)
		if len(got) != len(want) {
			t.Fatalf("point %d: %d neighbors, want %d", i, len(got), len(want))
		}
		self := false
		for j := range got {
			if int(got[j]) != want[j] {
				t.Fatalf("point %d: neighbor %d = %d, want %d", i, j, got[j], want[j])
			}
			if j > 0 && got[j-1] >= got[j] {
				t.Fatalf("point %d: neighbors not strictly ascending", i)
			}
			if int(got[j]) == i {
				self = true
			}
		}
		if !self {
			t.Fatalf("point %d: own id missing from its neighborhood", i)
		}
	}
}

func TestBuildNeighborhoodsSparsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("sparse IDs should panic")
		}
	}()
	g := NewGrid(geom.Square(10), 1)
	g.Insert(0, geom.Pt(1, 1))
	g.Insert(2, geom.Pt(2, 2)) // id 1 missing
	g.BuildNeighborhoods(3, 2)
}

// BenchmarkIndexBall contrasts the allocating Ball query with the
// reusable-buffer AppendBall and the precomputed Neighborhoods lookup at
// DECOR's paper density (2000 points, rs = 4) — the before/after pair
// behind the BENCH_core.json baseline.
func BenchmarkIndexBall(b *testing.B) {
	const n = 2000
	g, pts := randomPointGrid(n, 100, 4, 7)
	b.Run("ball-alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Ball(pts[i%n], 4)
		}
	})
	b.Run("append-reuse", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]int, 0, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = g.AppendBall(buf[:0], pts[i%n], 4)
		}
	})
	b.Run("neighborhoods", func(b *testing.B) {
		nb := g.BuildNeighborhoods(n, 4)
		b.ReportAllocs()
		b.ResetTimer()
		acc := 0
		for i := 0; i < b.N; i++ {
			for _, id := range nb.At(i % n) {
				acc += int(id)
			}
		}
		_ = acc
	})
}
