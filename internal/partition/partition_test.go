package partition

import (
	"testing"

	"decor/internal/geom"
	"decor/internal/lowdisc"
)

func TestNewGridDimensions(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	if g.Cols() != 20 || g.Rows() != 20 || g.NumCells() != 400 {
		t.Errorf("5x5 grid dims = %dx%d", g.Cols(), g.Rows())
	}
	g = NewGrid(geom.Square(100), 10)
	if g.NumCells() != 100 {
		t.Errorf("10x10 grid cells = %d", g.NumCells())
	}
	// Non-divisible: 100/7 -> 15 columns.
	g = NewGrid(geom.Square(100), 7)
	if g.Cols() != 15 {
		t.Errorf("7-unit grid cols = %d, want 15", g.Cols())
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero cell size should panic")
		}
	}()
	NewGrid(geom.Square(10), 0)
}

func TestCellIndexAndRect(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	if got := g.CellIndex(geom.Pt(0, 0)); got != 0 {
		t.Errorf("CellIndex(0,0) = %d", got)
	}
	if got := g.CellIndex(geom.Pt(7, 3)); got != 1 {
		t.Errorf("CellIndex(7,3) = %d", got)
	}
	if got := g.CellIndex(geom.Pt(3, 7)); got != 20 {
		t.Errorf("CellIndex(3,7) = %d", got)
	}
	// Boundary: the field max corner belongs to the last cell.
	if got := g.CellIndex(geom.Pt(100, 100)); got != 399 {
		t.Errorf("CellIndex(100,100) = %d", got)
	}
	// Outside points clamp.
	if got := g.CellIndex(geom.Pt(-5, -5)); got != 0 {
		t.Errorf("CellIndex(-5,-5) = %d", got)
	}
	r := g.CellRect(21)
	if !r.Min.Eq(geom.Pt(5, 5)) || !r.Max.Eq(geom.Pt(10, 10)) {
		t.Errorf("CellRect(21) = %v", r)
	}
}

func TestCellRectTiling(t *testing.T) {
	g := NewGrid(geom.Square(100), 7) // non-divisible tiling
	total := 0.0
	for i := 0; i < g.NumCells(); i++ {
		total += g.CellRect(i).Area()
	}
	if diff := total - 10000; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("cells tile to %v, want 10000", total)
	}
}

func TestNeighbors(t *testing.T) {
	g := NewGrid(geom.Square(100), 10) // 10x10 cells
	// Corner cell 0: 3 neighbors.
	if n := g.Neighbors(0); len(n) != 3 {
		t.Errorf("corner neighbors = %v", n)
	}
	// Edge cell 5: 5 neighbors.
	if n := g.Neighbors(5); len(n) != 5 {
		t.Errorf("edge neighbors = %v", n)
	}
	// Interior cell 55: 8 neighbors.
	n := g.Neighbors(55)
	if len(n) != 8 {
		t.Errorf("interior neighbors = %v", n)
	}
	want := []int{44, 45, 46, 54, 56, 64, 65, 66}
	for i := range want {
		if n[i] != want[i] {
			t.Errorf("interior neighbors = %v, want %v", n, want)
			break
		}
	}
}

func TestAssignPoints(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	pts := lowdisc.Halton{}.Points(2000, geom.Square(100))
	cells := g.AssignPoints(pts)
	total := 0
	for ci, idxs := range cells {
		r := g.CellRect(ci)
		for _, i := range idxs {
			if !r.Contains(pts[i]) {
				t.Fatalf("point %v assigned to wrong cell %v", pts[i], r)
			}
		}
		total += len(idxs)
	}
	if total != 2000 {
		t.Errorf("assigned %d points, want 2000", total)
	}
}

func TestMaxLeaderDistance(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	// Paper: rc = 10·sqrt(2) ≈ 14.14 for 5x5 cells.
	if got := g.MaxLeaderDistance(); got < 14.14 || got > 14.15 {
		t.Errorf("MaxLeaderDistance = %v", got)
	}
}
