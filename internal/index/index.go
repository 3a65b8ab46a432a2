// Package index provides a uniform bucket-grid spatial index over 2-D
// points. DECOR's greedy placement repeatedly asks "which sample points /
// sensors lie within rs of here?"; the bucket grid answers in O(points in
// the ball) instead of O(N), which keeps one placement's benefit update
// local (DESIGN.md §5).
package index

import (
	"math"
	"unsafe"

	"decor/internal/geom"
)

// Grid is a bucket-grid index mapping int IDs to points. IDs are
// client-chosen (sample-point index or sensor ID); a given ID may be
// inserted only once unless removed first.
type Grid struct {
	bounds     geom.Rect
	cell       float64
	cols, rows int
	buckets    [][]entry
	// dense holds positions for the contiguous ID prefix 0..len(dense)-1
	// loaded by InsertDense (the immutable sample-point set); pos holds
	// everything inserted afterwards (sensors, arbitrary IDs).
	dense []geom.Point
	pos   map[int]geom.Point
}

type entry struct {
	id int
	p  geom.Point
}

// NewGrid creates an index over bounds with the given bucket edge length.
// Points outside bounds are clamped into the border buckets, so slightly
// out-of-field insertions are legal. cell must be positive.
func NewGrid(bounds geom.Rect, cell float64) *Grid {
	if cell <= 0 {
		panic("index: cell size must be positive")
	}
	cols := int(math.Ceil(bounds.W()/cell)) + 1
	rows := int(math.Ceil(bounds.H()/cell)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		bounds:  bounds,
		cell:    cell,
		cols:    cols,
		rows:    rows,
		buckets: make([][]entry, cols*rows),
		pos:     make(map[int]geom.Point),
	}
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.dense) + len(g.pos) }

// Contains reports whether id is currently indexed.
func (g *Grid) Contains(id int) bool {
	if id >= 0 && id < len(g.dense) {
		return true
	}
	_, ok := g.pos[id]
	return ok
}

// At returns the position of id and whether it is indexed.
func (g *Grid) At(id int) (geom.Point, bool) {
	if id >= 0 && id < len(g.dense) {
		return g.dense[id], true
	}
	p, ok := g.pos[id]
	return p, ok
}

func (g *Grid) bucketIdx(p geom.Point) int {
	cx := int((p.X - g.bounds.Min.X) / g.cell)
	cy := int((p.Y - g.bounds.Min.Y) / g.cell)
	cx = clampInt(cx, 0, g.cols-1)
	cy = clampInt(cy, 0, g.rows-1)
	return cy*g.cols + cx
}

// Insert adds id at p. It panics if id is already present (a logic error
// in the caller: DECOR never re-places an existing sensor).
func (g *Grid) Insert(id int, p geom.Point) {
	if g.Contains(id) {
		panic("index: duplicate id")
	}
	g.pos[id] = p
	b := g.bucketIdx(p)
	g.buckets[b] = append(g.buckets[b], entry{id, p})
}

// InsertDense bulk-loads points with IDs 0..len(pts)-1 into an empty
// grid, presizing every bucket into one backing array — the
// construction fast path for the fixed sample-point set, whose
// one-at-a-time insertion otherwise dominates map setup. The grid keeps
// pts as its dense prefix, so the caller must not modify it afterwards.
// The dense prefix is immutable: Remove on those IDs panics.
func (g *Grid) InsertDense(pts []geom.Point) {
	if g.Len() != 0 {
		panic("index: InsertDense on non-empty grid")
	}
	g.dense = pts
	counts := make([]int, len(g.buckets))
	for _, p := range pts {
		counts[g.bucketIdx(p)]++
	}
	backing := make([]entry, len(pts))
	off := 0
	for b, c := range counts {
		g.buckets[b] = backing[off : off : off+c]
		off += c
	}
	for i, p := range pts {
		b := g.bucketIdx(p)
		g.buckets[b] = append(g.buckets[b], entry{i, p})
	}
}

// DenseBytes returns the bytes a grid holding only InsertDense points
// adds beside the points themselves: its bucket headers and entries.
func (g *Grid) DenseBytes() int64 {
	return int64(len(g.buckets))*int64(unsafe.Sizeof([]entry(nil))) +
		int64(len(g.dense))*int64(unsafe.Sizeof(entry{}))
}

// Clone returns an independent copy of the index. The dense prefix is
// shared (it is immutable by construction); buckets and the sparse
// position map are copied, so clone and original mutate independently.
func (g *Grid) Clone() *Grid {
	c := &Grid{
		bounds:  g.bounds,
		cell:    g.cell,
		cols:    g.cols,
		rows:    g.rows,
		buckets: make([][]entry, len(g.buckets)),
		dense:   g.dense,
		pos:     make(map[int]geom.Point, len(g.pos)),
	}
	for i, b := range g.buckets {
		if len(b) > 0 {
			c.buckets[i] = append([]entry(nil), b...)
		}
	}
	for id, p := range g.pos {
		c.pos[id] = p
	}
	return c
}

// Remove deletes id from the index, reporting whether it was present.
func (g *Grid) Remove(id int) bool {
	if id >= 0 && id < len(g.dense) {
		panic("index: cannot remove an InsertDense id")
	}
	p, ok := g.pos[id]
	if !ok {
		return false
	}
	delete(g.pos, id)
	b := g.bucketIdx(p)
	bucket := g.buckets[b]
	for i := range bucket {
		if bucket[i].id == id {
			bucket[i] = bucket[len(bucket)-1]
			g.buckets[b] = bucket[:len(bucket)-1]
			return true
		}
	}
	panic("index: id in pos map but not in bucket")
}

// VisitBall calls fn for every indexed point within distance r of c
// (closed ball). Iteration order is unspecified. If fn returns false the
// visit stops early.
func (g *Grid) VisitBall(c geom.Point, r float64, fn func(id int, p geom.Point) bool) {
	if r < 0 {
		return
	}
	r2 := r * r
	x0 := clampInt(int((c.X-r-g.bounds.Min.X)/g.cell), 0, g.cols-1)
	x1 := clampInt(int((c.X+r-g.bounds.Min.X)/g.cell), 0, g.cols-1)
	y0 := clampInt(int((c.Y-r-g.bounds.Min.Y)/g.cell), 0, g.rows-1)
	y1 := clampInt(int((c.Y+r-g.bounds.Min.Y)/g.cell), 0, g.rows-1)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, e := range g.buckets[cy*g.cols+cx] {
				if e.p.Dist2(c) <= r2 {
					if !fn(e.id, e.p) {
						return
					}
				}
			}
		}
	}
}

// Ball returns the IDs of all indexed points within distance r of c.
func (g *Grid) Ball(c geom.Point, r float64) []int {
	return g.AppendBall(nil, c, r)
}

// AppendBall appends the IDs of all indexed points within distance r of c
// to dst and returns the extended slice. Passing a reused buffer
// (dst[:0]) makes repeated ball queries allocation-free once the buffer
// has grown to the working-set size; order is unspecified, as in
// VisitBall.
func (g *Grid) AppendBall(dst []int, c geom.Point, r float64) []int {
	if r < 0 {
		return dst
	}
	r2 := r * r
	x0 := clampInt(int((c.X-r-g.bounds.Min.X)/g.cell), 0, g.cols-1)
	x1 := clampInt(int((c.X+r-g.bounds.Min.X)/g.cell), 0, g.cols-1)
	y0 := clampInt(int((c.Y-r-g.bounds.Min.Y)/g.cell), 0, g.rows-1)
	y1 := clampInt(int((c.Y+r-g.bounds.Min.Y)/g.cell), 0, g.rows-1)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, e := range g.buckets[cy*g.cols+cx] {
				if e.p.Dist2(c) <= r2 {
					dst = append(dst, e.id)
				}
			}
		}
	}
	return dst
}

// CountBall returns the number of indexed points within distance r of c.
func (g *Grid) CountBall(c geom.Point, r float64) int {
	n := 0
	g.VisitBall(c, r, func(int, geom.Point) bool { n++; return true })
	return n
}

// VisitRect calls fn for every indexed point inside the closed
// rectangle r. Iteration order is unspecified; returning false stops
// the visit early.
func (g *Grid) VisitRect(r geom.Rect, fn func(id int, p geom.Point) bool) {
	if r.Empty() {
		return
	}
	x0 := clampInt(int((r.Min.X-g.bounds.Min.X)/g.cell), 0, g.cols-1)
	x1 := clampInt(int((r.Max.X-g.bounds.Min.X)/g.cell), 0, g.cols-1)
	y0 := clampInt(int((r.Min.Y-g.bounds.Min.Y)/g.cell), 0, g.rows-1)
	y1 := clampInt(int((r.Max.Y-g.bounds.Min.Y)/g.cell), 0, g.rows-1)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, e := range g.buckets[cy*g.cols+cx] {
				if r.Contains(e.p) {
					if !fn(e.id, e.p) {
						return
					}
				}
			}
		}
	}
}

// Rect returns the IDs of all indexed points inside the closed
// rectangle.
func (g *Grid) Rect(r geom.Rect) []int {
	var out []int
	g.VisitRect(r, func(id int, _ geom.Point) bool {
		out = append(out, id)
		return true
	})
	return out
}

// Nearest returns the indexed point nearest to c within maxDist, or
// ok=false if none. Ties are broken by lowest id for determinism.
func (g *Grid) Nearest(c geom.Point, maxDist float64) (id int, p geom.Point, ok bool) {
	best := maxDist * maxDist
	found := false
	// Expand ring by ring so we can stop early once a hit is closer than
	// the next ring's minimum possible distance.
	ccx := clampInt(int((c.X-g.bounds.Min.X)/g.cell), 0, g.cols-1)
	ccy := clampInt(int((c.Y-g.bounds.Min.Y)/g.cell), 0, g.rows-1)
	maxRing := int(math.Ceil(maxDist/g.cell)) + 1
	for ring := 0; ring <= maxRing; ring++ {
		if found {
			// Minimum distance to cells in this ring.
			minD := float64(ring-1) * g.cell
			if minD > 0 && minD*minD > best {
				break
			}
		}
		g.visitRing(ccx, ccy, ring, func(e entry) {
			d := e.p.Dist2(c)
			if d < best || (d == best && found && e.id < id) {
				best, id, p, found = d, e.id, e.p, true
			}
		})
	}
	return id, p, found
}

func (g *Grid) visitRing(ccx, ccy, ring int, fn func(entry)) {
	x0, x1 := ccx-ring, ccx+ring
	y0, y1 := ccy-ring, ccy+ring
	for cy := y0; cy <= y1; cy++ {
		if cy < 0 || cy >= g.rows {
			continue
		}
		for cx := x0; cx <= x1; cx++ {
			if cx < 0 || cx >= g.cols {
				continue
			}
			// Only the boundary of the square ring.
			if ring > 0 && cx != x0 && cx != x1 && cy != y0 && cy != y1 {
				continue
			}
			for _, e := range g.buckets[cy*g.cols+cx] {
				fn(e)
			}
		}
	}
}

// IDs returns all indexed IDs in unspecified order.
func (g *Grid) IDs() []int {
	out := make([]int, 0, g.Len())
	for id := range g.dense {
		out = append(out, id)
	}
	for id := range g.pos {
		out = append(out, id)
	}
	return out
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
