package coverage

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"decor/internal/geom"
	"decor/internal/index"
)

// PointSet is the immutable half of a coverage map: the sample points
// approximating a field, their bucket index for sensing radius rs, the
// tile partition, and the point adjacency per radius. None of it
// depends on sensors or k, so every Map over the same points shares one
// PointSet (DESIGN.md §13), and the process-wide registry (shared.go)
// shares it between requests, sessions and experiment cells.
//
// A PointSet is safe for concurrent use. Adjacency builds are
// serialized by a mutex; a built adjacency is published through an
// atomic pointer and read without a lock.
type PointSet struct {
	field geom.Rect
	rs    float64
	pts   []geom.Point
	idx   *index.Grid // over pts, bucket edge rs
	tiles tiling

	mu    sync.Mutex                  // serializes adjacency builds
	nbs   atomic.Pointer[[]adjacency] // copy-on-write list of built radii
	bytes atomic.Int64                // retained bytes, adjacencies included
	// grew reports the bytes of each adjacency built after the set was
	// registered. The registry sets it before publishing the set; it is
	// nil for private sets.
	grew func(int64)
}

// adjacency is one built radius.
type adjacency struct {
	r  float64
	nb *index.Neighborhoods
}

// NewPointSet indexes pts over field for sensing radius rs. The set
// keeps pts, so the caller must not modify it afterwards. It panics on
// a non-positive rs.
func NewPointSet(field geom.Rect, pts []geom.Point, rs float64) *PointSet {
	if rs <= 0 {
		panic("coverage: rs must be positive")
	}
	ps := &PointSet{
		field: field,
		rs:    rs,
		pts:   pts,
		idx:   index.NewGrid(field, rs, pts),
		tiles: newTiling(field, pts),
	}
	ps.bytes.Store(int64(len(pts))*int64(unsafe.Sizeof(geom.Point{})) +
		ps.idx.Bytes() + ps.tiles.bytes())
	return ps
}

// Neighborhoods returns, for every sample point, the indices of sample
// points within r of it (ascending, self included) — the fixed
// adjacency the incremental benefit caches walk on every delta update.
// It is built on the first call for each radius; later calls, from any
// goroutine and any map over the set, take no lock.
func (ps *PointSet) Neighborhoods(r float64) *index.Neighborhoods {
	if nb := ps.BuiltNeighborhoods(r); nb != nil {
		return nb
	}
	ps.mu.Lock()
	nb := ps.BuiltNeighborhoods(r)
	var grown int64
	if nb == nil {
		nb = ps.idx.BuildNeighborhoods(r)
		var next []adjacency
		if cur := ps.nbs.Load(); cur != nil {
			next = append(next, *cur...)
		}
		next = append(next, adjacency{r, nb})
		ps.nbs.Store(&next)
		grown = nb.Bytes()
		ps.bytes.Add(grown)
	}
	ps.mu.Unlock()
	if grown > 0 && ps.grew != nil {
		ps.grew(grown)
	}
	return nb
}

// BuiltNeighborhoods returns the within-r adjacency if it has already
// been built, and nil otherwise. It never builds and never locks.
func (ps *PointSet) BuiltNeighborhoods(r float64) *index.Neighborhoods {
	if cur := ps.nbs.Load(); cur != nil {
		for _, a := range *cur {
			if a.r == r {
				return a.nb
			}
		}
	}
	return nil
}
