package index

import (
	"sort"
	"testing"

	"decor/internal/geom"
	"decor/internal/rng"
)

// Quadtree is a region quadtree over 2-D points, kept as an independent
// oracle for the Grid's ball queries: it partitions space adaptively
// and tests each node's rectangle against the disk, where the Grid
// scans fixed bucket rows. DECOR's fields are near-uniform, where the
// Grid wins (see BenchmarkIndexComparison).
type Quadtree struct {
	root *qnode
	pos  map[int]geom.Point
	// leafCap is the split threshold.
	leafCap int
}

type qnode struct {
	bounds   geom.Rect
	entries  []qentry // leaf payload (nil after split)
	children *[4]qnode
}

type qentry struct {
	id int
	p  geom.Point
}

// NewQuadtree creates a quadtree over bounds; leaves split beyond
// leafCap points (0 = a sensible default of 16). Out-of-bounds points
// are clamped, matching Grid semantics.
func NewQuadtree(bounds geom.Rect, leafCap int) *Quadtree {
	if bounds.Empty() {
		panic("index: quadtree bounds must be non-empty")
	}
	if leafCap <= 0 {
		leafCap = 16
	}
	return &Quadtree{
		root:    &qnode{bounds: bounds},
		pos:     map[int]geom.Point{},
		leafCap: leafCap,
	}
}

// Len returns the number of indexed points.
func (q *Quadtree) Len() int { return len(q.pos) }

// Insert adds id at p; it panics on duplicate id.
func (q *Quadtree) Insert(id int, p geom.Point) {
	if _, ok := q.pos[id]; ok {
		panic("index: duplicate id")
	}
	p = q.root.bounds.Clamp(p)
	q.pos[id] = p
	q.root.insert(qentry{id, p}, q.leafCap, 0)
}

const maxDepth = 24 // duplicates at one coordinate cannot split forever

func (n *qnode) insert(e qentry, leafCap, depth int) {
	if n.children == nil {
		n.entries = append(n.entries, e)
		if len(n.entries) > leafCap && depth < maxDepth {
			n.split(leafCap, depth)
		}
		return
	}
	n.childFor(e.p).insert(e, leafCap, depth+1)
}

func (n *qnode) split(leafCap, depth int) {
	c := n.bounds.Center()
	b := n.bounds
	n.children = &[4]qnode{
		{bounds: geom.Rect{Min: b.Min, Max: c}},
		{bounds: geom.Rect{Min: geom.Point{X: c.X, Y: b.Min.Y}, Max: geom.Point{X: b.Max.X, Y: c.Y}}},
		{bounds: geom.Rect{Min: geom.Point{X: b.Min.X, Y: c.Y}, Max: geom.Point{X: c.X, Y: b.Max.Y}}},
		{bounds: geom.Rect{Min: c, Max: b.Max}},
	}
	entries := n.entries
	n.entries = nil
	for _, e := range entries {
		n.childFor(e.p).insert(e, leafCap, depth+1)
	}
}

func (n *qnode) childFor(p geom.Point) *qnode {
	c := n.bounds.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	return &n.children[i]
}

// Remove deletes id, reporting whether it was present. (Leaves are not
// re-merged; DECOR workloads only grow.)
func (q *Quadtree) Remove(id int) bool {
	p, ok := q.pos[id]
	if !ok {
		return false
	}
	delete(q.pos, id)
	n := q.root
	for n.children != nil {
		n = n.childFor(p)
	}
	for i := range n.entries {
		if n.entries[i].id == id {
			n.entries[i] = n.entries[len(n.entries)-1]
			n.entries = n.entries[:len(n.entries)-1]
			return true
		}
	}
	panic("index: id in pos map but not in quadtree leaf")
}

// VisitBall calls fn for every indexed point within r of c (closed
// ball); returning false stops early.
func (q *Quadtree) VisitBall(c geom.Point, r float64, fn func(id int, p geom.Point) bool) {
	if r < 0 {
		return
	}
	q.root.visitBall(geom.Disk{Center: c, R: r}, fn)
}

func (n *qnode) visitBall(d geom.Disk, fn func(id int, p geom.Point) bool) bool {
	if !d.IntersectsRect(n.bounds) {
		return true
	}
	if n.children == nil {
		r2 := d.R * d.R
		for _, e := range n.entries {
			if e.p.Dist2(d.Center) <= r2 {
				if !fn(e.id, e.p) {
					return false
				}
			}
		}
		return true
	}
	for i := range n.children {
		if !n.children[i].visitBall(d, fn) {
			return false
		}
	}
	return true
}

// Ball returns the IDs within r of c.
func (q *Quadtree) Ball(c geom.Point, r float64) []int {
	var out []int
	q.VisitBall(c, r, func(id int, _ geom.Point) bool {
		out = append(out, id)
		return true
	})
	return out
}

// CountBall returns the number of indexed points within r of c.
func (q *Quadtree) CountBall(c geom.Point, r float64) int {
	n := 0
	q.VisitBall(c, r, func(int, geom.Point) bool { n++; return true })
	return n
}

// Depth returns the maximum leaf depth (a balance diagnostic).
func (q *Quadtree) Depth() int { return q.root.depth() }

func (n *qnode) depth() int {
	if n.children == nil {
		return 0
	}
	best := 0
	for i := range n.children {
		if d := n.children[i].depth(); d > best {
			best = d
		}
	}
	return best + 1
}

func TestQuadtreeBasics(t *testing.T) {
	q := NewQuadtree(geom.Square(100), 4)
	q.Insert(1, geom.Pt(10, 10))
	q.Insert(2, geom.Pt(90, 90))
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Ball(geom.Pt(10, 10), 5)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Ball = %v", got)
	}
	if !q.Remove(1) || q.Remove(1) {
		t.Error("Remove semantics wrong")
	}
	if q.Len() != 1 {
		t.Errorf("Len after remove = %d", q.Len())
	}
}

func TestQuadtreeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty bounds should panic")
		}
	}()
	NewQuadtree(geom.Rect{}, 4)
}

func TestQuadtreeDuplicatePanics(t *testing.T) {
	q := NewQuadtree(geom.Square(10), 4)
	q.Insert(1, geom.Pt(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate should panic")
		}
	}()
	q.Insert(1, geom.Pt(2, 2))
}

func TestQuadtreeSplitsAndBounds(t *testing.T) {
	q := NewQuadtree(geom.Square(100), 2)
	r := rng.New(3)
	for id := 0; id < 200; id++ {
		q.Insert(id, r.PointInRect(geom.Square(100)))
	}
	if q.Depth() == 0 {
		t.Error("tree never split")
	}
	// Identical coordinates must not split forever.
	q2 := NewQuadtree(geom.Square(10), 2)
	for id := 0; id < 100; id++ {
		q2.Insert(id, geom.Pt(5, 5))
	}
	if d := q2.Depth(); d > maxDepth {
		t.Errorf("degenerate depth = %d", d)
	}
	if got := q2.CountBall(geom.Pt(5, 5), 0.1); got != 100 {
		t.Errorf("coincident count = %d", got)
	}
}

// The grid's ball queries must return exactly the quadtree's on random
// workloads. The quadtree also loses a third of its points, and the
// grid's answers filtered to the survivors must still match.
func TestQuadtreeMatchesGrid(t *testing.T) {
	r := rng.New(21)
	bounds := geom.Square(100)
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = r.PointInRect(bounds)
	}
	g := NewGrid(bounds, 4, pts)
	q := NewQuadtree(bounds, 8)
	for id, p := range pts {
		q.Insert(id, p)
	}
	alive := make([]bool, len(pts))
	for id := range alive {
		alive[id] = true
		if r.Float64() < 0.3 {
			alive[id] = false
			if !q.Remove(id) {
				t.Fatalf("quadtree lost point %d", id)
			}
		}
	}
	for trial := 0; trial < 150; trial++ {
		c := r.PointInRect(bounds)
		rad := r.Range(0, 15)
		var a []int
		for _, id := range g.Ball(c, rad) {
			if alive[id] {
				a = append(a, id)
			}
		}
		b := q.Ball(c, rad)
		sort.Ints(a)
		sort.Ints(b)
		if len(a) != len(b) {
			t.Fatalf("trial %d: grid %d vs quadtree %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestQuadtreeEarlyStopAndNegative(t *testing.T) {
	q := NewQuadtree(geom.Square(10), 2)
	for id := 0; id < 10; id++ {
		q.Insert(id, geom.Pt(5, 5))
	}
	calls := 0
	q.VisitBall(geom.Pt(5, 5), 1, func(int, geom.Point) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Errorf("early stop visited %d", calls)
	}
	q.VisitBall(geom.Pt(5, 5), -1, func(int, geom.Point) bool {
		t.Error("negative radius visited")
		return true
	})
}

// BenchmarkIndexComparison pits the two structures on the DECOR workload
// shape (uniform-ish points, rs-ball queries).
func BenchmarkIndexComparison(b *testing.B) {
	bounds := geom.Square(100)
	r := rng.New(1)
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = r.PointInRect(bounds)
	}
	g := NewGrid(bounds, 4, pts)
	q := NewQuadtree(bounds, 16)
	for id, p := range pts {
		q.Insert(id, p)
	}
	c := geom.Pt(50, 50)
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.CountBall(c, 4)
		}
	})
	b.Run("quadtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.CountBall(c, 4)
		}
	})
}
