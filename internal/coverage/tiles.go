// Tile partition of the sample points (DESIGN.md §13).
//
// Beside its flat per-point counts, a Map groups the sample points into
// square tiles of about tilePoints points each and keeps every tile's
// number of deficient points (count < k). The placement engines use
// those summaries to skip fully k-covered tiles in O(1) and to find the
// lowest deficient point without scanning the whole field.
package coverage

import (
	"math"

	"decor/internal/geom"
)

// tilePoints is the target number of sample points per tile: small
// enough that a placement disk touches only a handful of tiles, large
// enough that the per-tile summaries stay negligible.
const tilePoints = 4096

// tiling is the immutable point→tile partition; clones share its slices.
type tiling struct {
	bounds     geom.Rect
	side       float64 // tile edge length in field units
	cols, rows int
	tileOf     []int32 // point -> tile
	start      []int32 // CSR offsets: tile t owns order[start[t]:start[t+1]]
	order      []int32 // tile-major point indices, ascending within each tile
}

// newTiling buckets pts into square tiles over bounds sized so a
// uniform point set averages tilePoints points per tile.
func newTiling(bounds geom.Rect, pts []geom.Point) tiling {
	n := len(pts)
	side := math.Sqrt(bounds.W() * bounds.H() * tilePoints / math.Max(float64(n), 1))
	if side <= 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		side = math.Max(bounds.W(), bounds.H())
	}
	if side <= 0 {
		side = 1
	}
	g := tiling{
		bounds: bounds,
		side:   side,
		cols:   int(math.Ceil(bounds.W()/side)) + 1,
		rows:   int(math.Ceil(bounds.H()/side)) + 1,
		tileOf: make([]int32, n),
		order:  make([]int32, n),
	}
	g.start = make([]int32, g.cols*g.rows+1)
	// Bucket the points tile-major: start[t] ends up at the end of tile
	// t, then filling backwards in descending point order walks it down
	// to the tile's beginning and leaves every tile's list ascending,
	// which the engines rely on for lowest-index tie-breaking.
	for i, p := range pts {
		t := g.tileIdx(p)
		g.tileOf[i] = int32(t)
		g.start[t]++
	}
	for t := 1; t < len(g.start); t++ {
		g.start[t] += g.start[t-1]
	}
	for i := n - 1; i >= 0; i-- {
		t := g.tileOf[i]
		g.start[t]--
		g.order[g.start[t]] = int32(i)
	}
	return g
}

func (g *tiling) cell(x, y float64) (int, int) {
	cx := int((x - g.bounds.Min.X) / g.side)
	cy := int((y - g.bounds.Min.Y) / g.side)
	return min(max(cx, 0), g.cols-1), min(max(cy, 0), g.rows-1)
}

func (g *tiling) tileIdx(p geom.Point) int {
	cx, cy := g.cell(p.X, p.Y)
	return cy*g.cols + cx
}

// NumTiles returns the number of tiles (including empty ones).
func (m *Map) NumTiles() int { return len(m.tileDef) }

// TilePoints returns tile t's sample-point indices, ascending. The
// slice aliases shared immutable state: callers must not modify it.
func (m *Map) TilePoints(t int) []int32 {
	return m.tiles.order[m.tiles.start[t]:m.tiles.start[t+1]]
}

// DeficientInTile returns the number of tile t's points with count < k
// — the O(1) "is this tile fully covered?" summary.
func (m *Map) DeficientInTile(t int) int { return int(m.tileDef[t]) }

// VisitTilesInDisk calls fn(t) for every tile whose square overlaps the
// bounding box of the disk centered at c with radius r — a superset of
// the tiles holding points within r of c.
func (m *Map) VisitTilesInDisk(c geom.Point, r float64, fn func(t int)) {
	g := &m.tiles
	x0, y0 := g.cell(c.X-r, c.Y-r)
	x1, y1 := g.cell(c.X+r, c.Y+r)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			fn(cy*g.cols + cx)
		}
	}
}

// LowestDeficient returns the lowest-index sample point with k_p < k,
// or -1 when the field is fully covered: UncoveredPoints()[0] found
// through the tile summaries instead of a full scan.
func (m *Map) LowestDeficient() int {
	best := -1
	for t, d := range m.tileDef {
		if d == 0 {
			continue
		}
		for _, i := range m.TilePoints(t) {
			if m.counts[i] < m.k {
				if best < 0 || int(i) < best {
					best = int(i)
				}
				break // tile lists are ascending
			}
		}
	}
	return best
}
