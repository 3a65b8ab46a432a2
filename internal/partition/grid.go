// Package partition implements DECOR's two partitions of the sample
// points (paper §3.1): fixed grid cells with one leader per cell, and
// local Voronoi cells (Definition 1), which the Voronoi engine in
// internal/core tracks for the points a run repairs.
package partition

import (
	"decor/internal/geom"
)

// Grid is a fixed partition of the field into cellSize × cellSize cells
// (the rightmost/topmost cells may be smaller if the field size is not a
// multiple of cellSize).
type Grid struct {
	field    geom.Rect
	cellSize float64
	cols     int
	rows     int
}

// NewGrid creates a grid partition. cellSize must be positive.
func NewGrid(field geom.Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("partition: cell size must be positive")
	}
	cols := int(field.W() / cellSize)
	if float64(cols)*cellSize < field.W()-1e-9 {
		cols++
	}
	rows := int(field.H() / cellSize)
	if float64(rows)*cellSize < field.H()-1e-9 {
		rows++
	}
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{field: field, cellSize: cellSize, cols: cols, rows: rows}
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.cols * g.rows }

// CellIndex returns the cell containing p. Points outside the field are
// clamped to the nearest border cell, so every point maps to exactly one
// cell.
func (g *Grid) CellIndex(p geom.Point) int {
	cx := int((p.X - g.field.Min.X) / g.cellSize)
	cy := int((p.Y - g.field.Min.Y) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// CellRect returns the rectangle of cell idx, clipped to the field.
func (g *Grid) CellRect(idx int) geom.Rect {
	cx := idx % g.cols
	cy := idx / g.cols
	r := geom.RectWH(
		g.field.Min.X+float64(cx)*g.cellSize,
		g.field.Min.Y+float64(cy)*g.cellSize,
		g.cellSize, g.cellSize,
	)
	return r.Intersect(g.field)
}

// Neighbors returns the indices of the up-to-8 cells adjacent to idx
// (Moore neighborhood), in ascending order.
func (g *Grid) Neighbors(idx int) []int {
	cx := idx % g.cols
	cy := idx / g.cols
	out := make([]int, 0, 8)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := cx+dx, cy+dy
			if nx < 0 || nx >= g.cols || ny < 0 || ny >= g.rows {
				continue
			}
			out = append(out, ny*g.cols+nx)
		}
	}
	return out
}

// AssignPoints groups the sample points by containing cell, returning a
// slice indexed by cell of ascending point indices.
func (g *Grid) AssignPoints(pts []geom.Point) [][]int {
	cells := make([][]int, g.NumCells())
	for i, p := range pts {
		c := g.CellIndex(p)
		cells[c] = append(cells[c], i)
	}
	return cells
}
