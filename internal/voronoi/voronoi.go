// Package voronoi computes exact (polygon) Voronoi diagrams clipped to a
// rectangle, by iterative half-plane clipping. The paper's Voronoi-based
// DECOR uses a *local approximation* of these cells over the sample
// points (internal/partition); this package provides the geometric
// ground truth it is validated against, plus cell polygons for
// rendering.
//
// Complexity is O(n) half-plane clips per cell (O(n²) per diagram),
// which is plenty for the paper's deployment sizes and far simpler than
// Fortune's algorithm.
package voronoi

import (
	"decor/internal/geom"
)

// Cell returns the Voronoi cell of sites[i] clipped to rect, as a convex
// polygon in counter-clockwise order. It returns nil when the cell is
// empty (site outside an exotic clip) — cannot happen for sites inside
// rect. Duplicate sites split ties by half-plane boundary, so exact
// duplicates yield degenerate (empty) cells for the higher index.
func Cell(sites []geom.Point, i int, rect geom.Rect) []geom.Point {
	if i < 0 || i >= len(sites) {
		panic("voronoi: site index out of range")
	}
	c := rect.Corners()
	poly := []geom.Point{c[0], c[1], c[2], c[3]}
	si := sites[i]
	for j, sj := range sites {
		if j == i || sj.Eq(si) && j > i {
			continue
		}
		if sj.Eq(si) {
			// An earlier exact duplicate owns the cell.
			return nil
		}
		poly = clipHalfPlane(poly, si, sj)
		if len(poly) == 0 {
			return nil
		}
	}
	return poly
}

// Diagram returns every site's clipped cell.
func Diagram(sites []geom.Point, rect geom.Rect) [][]geom.Point {
	out := make([][]geom.Point, len(sites))
	for i := range sites {
		out[i] = Cell(sites, i, rect)
	}
	return out
}

// clipHalfPlane clips the convex polygon to the half-plane of points at
// least as close to a as to b (the perpendicular bisector, keeping a's
// side), via Sutherland–Hodgman.
func clipHalfPlane(poly []geom.Point, a, b geom.Point) []geom.Point {
	if len(poly) == 0 {
		return nil
	}
	// Signed "inside" function: f(p) > 0 when p is strictly closer to a.
	// f(p) = |p-b|² − |p-a|², linear in p.
	f := func(p geom.Point) float64 {
		return p.Dist2(b) - p.Dist2(a)
	}
	var out []geom.Point
	for k := range poly {
		cur := poly[k]
		next := poly[(k+1)%len(poly)]
		fc, fn := f(cur), f(next)
		if fc >= 0 {
			out = append(out, cur)
		}
		if (fc > 0 && fn < 0) || (fc < 0 && fn > 0) {
			t := fc / (fc - fn)
			out = append(out, cur.Lerp(next, t))
		}
	}
	return out
}
