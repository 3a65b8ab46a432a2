package voronoi

import (
	"math"
	"testing"

	"decor/internal/geom"
	"decor/internal/rng"
)

func TestSingleSiteOwnsEverything(t *testing.T) {
	rect := geom.Square(10)
	cells := Diagram([]geom.Point{{X: 3, Y: 7}}, rect)
	if len(cells) != 1 {
		t.Fatal("one cell expected")
	}
	if got := polygonArea(cells[0]); math.Abs(got-100) > 1e-9 {
		t.Errorf("cell area = %v, want 100", got)
	}
}

func TestTwoSitesSplitAtBisector(t *testing.T) {
	rect := geom.Square(10)
	sites := []geom.Point{{X: 2.5, Y: 5}, {X: 7.5, Y: 5}}
	cells := Diagram(sites, rect)
	for i, want := range []float64{50, 50} {
		if got := polygonArea(cells[i]); math.Abs(got-want) > 1e-9 {
			t.Errorf("cell %d area = %v, want %v", i, got, want)
		}
	}
	// The bisector is x=5: cell 0 must contain (4.9,5) and not (5.1,5).
	if !contains(cells[0], geom.Pt(4.9, 5)) || contains(cells[0], geom.Pt(5.1, 5)) {
		t.Error("bisector split wrong")
	}
}

func TestFourSiteGrid(t *testing.T) {
	rect := geom.Square(10)
	sites := []geom.Point{{X: 2.5, Y: 2.5}, {X: 7.5, Y: 2.5}, {X: 2.5, Y: 7.5}, {X: 7.5, Y: 7.5}}
	cells := Diagram(sites, rect)
	for i, c := range cells {
		if got := polygonArea(c); math.Abs(got-25) > 1e-9 {
			t.Errorf("cell %d area = %v, want 25", i, got)
		}
		if !contains(c, sites[i]) {
			t.Errorf("cell %d does not contain its own site", i)
		}
	}
}

func TestCellPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad index should panic")
		}
	}()
	Cell([]geom.Point{{X: 1, Y: 1}}, 1, geom.Square(10))
}

func TestDuplicateSites(t *testing.T) {
	rect := geom.Square(10)
	sites := []geom.Point{{X: 5, Y: 5}, {X: 5, Y: 5}}
	cells := Diagram(sites, rect)
	if cells[0] == nil {
		t.Error("first duplicate should own the cell")
	}
	if cells[1] != nil {
		t.Error("second duplicate should have an empty cell")
	}
}

// Properties on random site sets: cells partition the rectangle (areas
// sum to rect area), every site lies in its own cell, and cell
// membership agrees with nearest-site assignment.
func TestDiagramPartitionProperties(t *testing.T) {
	r := rng.New(23)
	rect := geom.Square(50)
	for trial := 0; trial < 15; trial++ {
		n := 2 + r.Intn(40)
		sites := make([]geom.Point, n)
		for i := range sites {
			sites[i] = r.PointInRect(rect)
		}
		cells := Diagram(sites, rect)
		total := 0.0
		for i, c := range cells {
			area := polygonArea(c)
			total += area
			if area <= 0 {
				t.Fatalf("trial %d: cell %d degenerate", trial, i)
			}
			if !contains(c, sites[i]) {
				t.Fatalf("trial %d: site %d outside its cell", trial, i)
			}
		}
		if math.Abs(total-rect.Area()) > 1e-6 {
			t.Fatalf("trial %d: areas sum to %v, want %v", trial, total, rect.Area())
		}
		// Nearest-site agreement on random probes.
		for probe := 0; probe < 100; probe++ {
			p := r.PointInRect(rect)
			best, bestD := -1, math.Inf(1)
			for i, s := range sites {
				if d := s.Dist2(p); d < bestD {
					best, bestD = i, d
				}
			}
			if !contains(cells[best], p) {
				t.Fatalf("trial %d: probe %v not in nearest site %d's cell", trial, p, best)
			}
		}
	}
}

// The local Voronoi ownership from internal/partition must agree with
// the exact diagram when rc spans the whole field.
func TestAgreesWithPartitionOwnership(t *testing.T) {
	r := rng.New(31)
	rect := geom.Square(40)
	sites := make([]geom.Point, 25)
	for i := range sites {
		sites[i] = r.PointInRect(rect)
	}
	cells := Diagram(sites, rect)
	// Probe with random sample points and cross-check assignments.
	for probe := 0; probe < 300; probe++ {
		p := r.PointInRect(rect)
		owner := -1
		bestD := math.Inf(1)
		for i, s := range sites {
			if d := s.Dist2(p); d < bestD {
				owner, bestD = i, d
			}
		}
		inCells := 0
		for i, c := range cells {
			if contains(c, p) {
				inCells++
				if i != owner && !onSharedBoundary(p, sites, owner, i) {
					t.Fatalf("probe %v in cell %d but nearest is %d", p, i, owner)
				}
			}
		}
		if inCells == 0 {
			t.Fatalf("probe %v in no cell", p)
		}
	}
}

func onSharedBoundary(p geom.Point, sites []geom.Point, a, b int) bool {
	return math.Abs(p.Dist2(sites[a])-p.Dist2(sites[b])) < 1e-6
}

// polygonArea returns the (positive) area of the simple polygon given by
// its vertices in order: the shoelace formula.
func polygonArea(poly []geom.Point) float64 {
	if len(poly) < 3 {
		return 0
	}
	sum := 0.0
	for i, p := range poly {
		sum += cross(p, poly[(i+1)%len(poly)])
	}
	return math.Abs(sum) / 2
}

// contains is the tests' point-in-cell oracle: whether p lies in the
// convex polygon (boundary inclusive), assuming counter-clockwise
// orientation.
func contains(poly []geom.Point, p geom.Point) bool {
	if len(poly) < 3 {
		return false
	}
	for i := range poly {
		a := poly[i]
		b := poly[(i+1)%len(poly)]
		if cross(b.Sub(a), p.Sub(a)) < -1e-9 {
			return false
		}
	}
	return true
}

// cross returns the z-component of the cross product p×q.
func cross(p, q geom.Point) float64 { return p.X*q.Y - p.Y*q.X }
