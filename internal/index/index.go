// Package index provides a uniform bucket-grid spatial index over a
// fixed 2-D point set. DECOR's greedy placement repeatedly asks "which
// sample points lie within rs of here?"; the bucket grid answers in
// O(points in the ball) instead of O(N), which keeps one placement's
// benefit update local (DESIGN.md §5).
package index

import (
	"math"
	"unsafe"

	"decor/internal/geom"
)

// Buckets is the geometry of a uniform bucket grid: bounds cut into
// square buckets of edge cell, numbered row-major. Points outside bounds
// fall into the border buckets, so slightly out-of-field positions are
// legal. Grid lays its points out over it; the coverage map's sensor
// table chains its sensors through the same numbering.
type Buckets struct {
	bounds     geom.Rect
	cell       float64
	cols, rows int
}

// newBuckets returns the geometry of a grid over bounds with the given
// bucket edge length: (⌈W/cell⌉+1)·(⌈H/cell⌉+1) buckets. cell must be
// positive.
func newBuckets(bounds geom.Rect, cell float64) Buckets {
	if cell <= 0 {
		panic("index: cell size must be positive")
	}
	return Buckets{
		bounds: bounds,
		cell:   cell,
		cols:   max(int(math.Ceil(bounds.W()/cell))+1, 1),
		rows:   max(int(math.Ceil(bounds.H()/cell))+1, 1),
	}
}

// NumBuckets returns the number of buckets.
func (b *Buckets) NumBuckets() int { return b.cols * b.rows }

// Cols returns the number of buckets in a row: bucket (cx, cy) is
// cy·Cols()+cx.
func (b *Buckets) Cols() int { return b.cols }

// Of returns the bucket holding p.
func (b *Buckets) Of(p geom.Point) int {
	cx := clampInt(int((p.X-b.bounds.Min.X)/b.cell), 0, b.cols-1)
	cy := clampInt(int((p.Y-b.bounds.Min.Y)/b.cell), 0, b.rows-1)
	return cy*b.cols + cx
}

// Span returns the columns x0..x1 and rows y0..y1 of the buckets that
// can hold a point within r of c, clamped to the grid.
func (b *Buckets) Span(c geom.Point, r float64) (x0, x1, y0, y1 int) {
	x0 = clampInt(int((c.X-r-b.bounds.Min.X)/b.cell), 0, b.cols-1)
	x1 = clampInt(int((c.X+r-b.bounds.Min.X)/b.cell), 0, b.cols-1)
	y0 = clampInt(int((c.Y-r-b.bounds.Min.Y)/b.cell), 0, b.rows-1)
	y1 = clampInt(int((c.Y+r-b.bounds.Min.Y)/b.cell), 0, b.rows-1)
	return x0, x1, y0, y1
}

// Grid is an immutable bucket-grid index over a dense point set: ID i is
// the point pts[i]. Its entries are stored bucket-major (CSR), so the
// buckets x0..x1 of one row are one contiguous slice and a ball query
// scans one slice per bucket row.
type Grid struct {
	Buckets
	pts   []geom.Point
	start []int32 // bucket b holds ents[start[b]:start[b+1]]
	ents  []entry // bucket-major, ascending ID within a bucket
}

type entry struct {
	p  geom.Point
	id int32
}

// NewGrid indexes pts over bounds with the given bucket edge length,
// giving pts[i] the ID i. The grid keeps pts, so the caller must not
// modify it afterwards. It panics on a non-positive cell or more than
// 2^31−1 points.
func NewGrid(bounds geom.Rect, cell float64, pts []geom.Point) *Grid {
	if len(pts) > math.MaxInt32 {
		panic("index: too many points for int32 IDs")
	}
	g := &Grid{Buckets: newBuckets(bounds, cell), pts: pts}
	nb := g.NumBuckets()
	g.start = make([]int32, nb+1)
	g.ents = make([]entry, len(pts))
	// Count each bucket, prefix-sum to bucket ends, then fill backwards
	// in descending ID order: every end walks down to its bucket's
	// beginning and leaves the bucket ascending.
	for _, p := range pts {
		g.start[g.Of(p)]++
	}
	for b := 1; b <= nb; b++ {
		g.start[b] += g.start[b-1]
	}
	for i := len(pts) - 1; i >= 0; i-- {
		b := g.Of(pts[i])
		g.start[b]--
		g.ents[g.start[b]] = entry{pts[i], int32(i)}
	}
	return g
}

// Bytes returns the bytes the grid adds beside the points themselves:
// its bucket offsets and entries.
func (g *Grid) Bytes() int64 {
	return 4*int64(len(g.start)) + int64(len(g.ents))*int64(unsafe.Sizeof(entry{}))
}

// row returns the entries of buckets x0..x1 of bucket row cy.
func (g *Grid) row(cy, x0, x1 int) []entry {
	b := cy * g.cols
	return g.ents[g.start[b+x0]:g.start[b+x1+1]]
}

// VisitBall calls fn for every indexed point within distance r of c
// (closed ball), bucket row by bucket row, each row left to right and
// ascending by ID within a bucket. If fn returns false the visit stops
// early.
func (g *Grid) VisitBall(c geom.Point, r float64, fn func(id int, p geom.Point) bool) {
	if r < 0 {
		return
	}
	r2 := r * r
	x0, x1, y0, y1 := g.Span(c, r)
	for cy := y0; cy <= y1; cy++ {
		for _, e := range g.row(cy, x0, x1) {
			if e.p.Dist2(c) <= r2 {
				if !fn(int(e.id), e.p) {
					return
				}
			}
		}
	}
}

// AppendBall appends the IDs of all indexed points within distance r of
// c to dst, in VisitBall's order, and returns the extended slice.
// Passing a reused buffer (dst[:0]) makes repeated ball queries
// allocation-free once the buffer has grown to the working-set size.
func (g *Grid) AppendBall(dst []int, c geom.Point, r float64) []int {
	if r < 0 {
		return dst
	}
	r2 := r * r
	x0, x1, y0, y1 := g.Span(c, r)
	for cy := y0; cy <= y1; cy++ {
		for _, e := range g.row(cy, x0, x1) {
			if e.p.Dist2(c) <= r2 {
				dst = append(dst, int(e.id))
			}
		}
	}
	return dst
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
