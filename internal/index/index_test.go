package index

import (
	"math"
	"sort"
	"testing"

	"decor/internal/geom"
	"decor/internal/rng"
)

// Test-only queries. Each walks the buckets one at a time through its
// own traversal (whole buckets, rings, rectangles), so holding it equal
// to the production row scans cross-checks the CSR layout.

// bucket returns bucket b's entries.
func (g *Grid) bucket(b int) []entry { return g.ents[g.start[b]:g.start[b+1]] }

// Ball returns the IDs of all indexed points within distance r of c.
func (g *Grid) Ball(c geom.Point, r float64) []int { return g.AppendBall(nil, c, r) }

// CountBall returns the number of indexed points within distance r of c.
func (g *Grid) CountBall(c geom.Point, r float64) int {
	n := 0
	g.VisitBall(c, r, func(int, geom.Point) bool { n++; return true })
	return n
}

// Nearest returns the indexed point nearest to c within maxDist, or
// ok=false if none. Ties are broken by lowest id.
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
			minD := float64(ring-1) * g.cell
			if minD > 0 && minD*minD > best {
				break
			}
		}
		g.visitRing(ccx, ccy, ring, func(e entry) {
			d := e.p.Dist2(c)
			if d < best || (d == best && found && int(e.id) < id) {
				best, id, p, found = d, int(e.id), e.p, true
			}
		})
	}
	return id, p, found
}

func (g *Grid) visitRing(ccx, ccy, ring int, fn func(entry)) {
	x0, x1 := ccx-ring, ccx+ring
	y0, y1 := ccy-ring, ccy+ring
	for cy := max(y0, 0); cy <= min(y1, g.rows-1); cy++ {
		for cx := max(x0, 0); cx <= min(x1, g.cols-1); cx++ {
			// Only the boundary of the square ring.
			if ring > 0 && cx != x0 && cx != x1 && cy != y0 && cy != y1 {
				continue
			}
			for _, e := range g.bucket(cy*g.cols + cx) {
				fn(e)
			}
		}
	}
}

// VisitRect calls fn for every indexed point inside the closed
// rectangle r; returning false stops the visit early.
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
			for _, e := range g.bucket(cy*g.cols + cx) {
				if r.Contains(e.p) {
					if !fn(int(e.id), e.p) {
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

// IDs returns every ID in the entry array, bucket by bucket.
func (g *Grid) IDs() []int {
	out := make([]int, 0, len(g.ents))
	for b := 0; b < g.NumBuckets(); b++ {
		for _, e := range g.bucket(b) {
			out = append(out, int(e.id))
		}
	}
	return out
}

// randomPoints returns n uniform points over bounds.
func randomPoints(n int, bounds geom.Rect, seed uint64) []geom.Point {
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = r.PointInRect(bounds)
	}
	return pts
}

func TestNewGridPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive cell should panic")
		}
	}()
	NewGrid(geom.Square(10), 0, nil)
}

func TestOutOfBoundsInsertIsClamped(t *testing.T) {
	g := NewGrid(geom.Square(10), 1, []geom.Point{geom.Pt(-5, 20)}) // clamped into a border bucket, still findable
	got := g.Ball(geom.Pt(-5, 20), 1)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("Ball at out-of-bounds point = %v", got)
	}
}

// Reference brute-force ball query for cross-validation.
func bruteBall(pts []geom.Point, c geom.Point, r float64) []int {
	var out []int
	for id, p := range pts {
		if p.Dist2(c) <= r*r {
			out = append(out, id)
		}
	}
	return out
}

func TestBallMatchesBruteForce(t *testing.T) {
	r := rng.New(99)
	bounds := geom.Square(100)
	pts := randomPoints(500, bounds, 98)
	g := NewGrid(bounds, 4, pts)
	for trial := 0; trial < 200; trial++ {
		c := r.PointInRect(bounds)
		rad := r.Range(0, 20)
		got := g.Ball(c, rad)
		sort.Ints(got)
		want := bruteBall(pts, c, rad)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
		if g.CountBall(c, rad) != len(want) {
			t.Fatalf("trial %d: CountBall mismatch", trial)
		}
	}
}

// TestCSRBallEdgeCases holds VisitBall and AppendBall equal to brute
// force, in the row-scan order (bucket row, then column, then ID), where
// the bucket arithmetic is most likely to slip: centres outside the
// field, radius 0, a radius spanning the whole field, and points lying
// exactly on bucket-row and bucket-column edges.
func TestCSRBallEdgeCases(t *testing.T) {
	const cell = 4.0
	bounds := geom.Square(40)
	pts := randomPoints(300, bounds, 5)
	// Lattice points on every bucket edge, the field's far edges
	// included, plus duplicates of some of them.
	for y := 0.0; y <= 40; y += cell {
		for x := 0.0; x <= 40; x += cell {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	pts = append(pts, pts[300], pts[310], geom.Pt(-3, 41), geom.Pt(44, -1))
	g := NewGrid(bounds, cell, pts)

	rowScanOrder := func(ids []int) []int {
		out := append([]int(nil), ids...)
		sort.Slice(out, func(i, j int) bool {
			bi, bj := g.Of(pts[out[i]]), g.Of(pts[out[j]])
			if bi != bj {
				return bi < bj // row-major bucket order is the row scan's order
			}
			return out[i] < out[j]
		})
		return out
	}
	type query struct {
		c geom.Point
		r float64
	}
	var qs []query
	for _, c := range []geom.Point{
		geom.Pt(-10, -10), geom.Pt(50, 20), geom.Pt(20, -7), geom.Pt(-1, 45), geom.Pt(60, 60),
	} {
		qs = append(qs, query{c, 12}, query{c, 0}, query{c, 100})
	}
	for y := 0.0; y <= 40; y += cell {
		for x := 0.0; x <= 40; x += cell {
			c := geom.Pt(x, y)
			qs = append(qs, query{c, 0}, query{c, cell}, query{c, 2 * cell}, query{c, math.Sqrt2 * cell})
		}
	}
	qs = append(qs, query{geom.Pt(20, 20), 60}, query{geom.Pt(0, 0), 40 * math.Sqrt2})
	for _, q := range qs {
		want := rowScanOrder(bruteBall(pts, q.c, q.r))
		var visited []int
		g.VisitBall(q.c, q.r, func(id int, p geom.Point) bool {
			if p != pts[id] {
				t.Fatalf("VisitBall(%v, %g) gave id %d at %v, want %v", q.c, q.r, id, p, pts[id])
			}
			visited = append(visited, id)
			return true
		})
		appended := g.AppendBall(nil, q.c, q.r)
		for name, got := range map[string][]int{"VisitBall": visited, "AppendBall": appended} {
			if len(got) != len(want) {
				t.Fatalf("%s(%v, %g): %d ids, want %d", name, q.c, q.r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s(%v, %g): position %d holds %d, want %d", name, q.c, q.r, i, got[i], want[i])
				}
			}
		}
		if q.r == 100 || q.r == 60 {
			if len(want) != len(pts) {
				t.Fatalf("radius %g around %v reaches %d of %d points", q.r, q.c, len(want), len(pts))
			}
		}
		// The ring walk finds the ball's nearest point whenever it lies
		// strictly inside the ball (Nearest's bound is open).
		best := -1
		for _, j := range want {
			dj := pts[j].Dist2(q.c)
			if best < 0 || dj < pts[best].Dist2(q.c) || dj == pts[best].Dist2(q.c) && j < best {
				best = j
			}
		}
		inside := best >= 0 && pts[best].Dist2(q.c) < q.r*q.r
		if id, _, ok := g.Nearest(q.c, q.r); ok != inside || ok && id != best {
			t.Fatalf("Nearest(%v, %g) = %d, %v; the ball's nearest is %d (strictly inside: %v)", q.c, q.r, id, ok, best, inside)
		}
	}
}

func TestVisitBallEarlyStop(t *testing.T) {
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Pt(5, 5)
	}
	g := NewGrid(geom.Square(10), 1, pts)
	calls := 0
	g.VisitBall(geom.Pt(5, 5), 1, func(int, geom.Point) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop visited %d, want 3", calls)
	}
}

func TestVisitBallNegativeRadius(t *testing.T) {
	g := NewGrid(geom.Square(10), 1, []geom.Point{geom.Pt(5, 5)})
	called := false
	g.VisitBall(geom.Pt(5, 5), -1, func(int, geom.Point) bool { called = true; return true })
	if called {
		t.Error("negative radius should visit nothing")
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	bounds := geom.Square(100)
	pts := randomPoints(300, bounds, 8)
	g := NewGrid(bounds, 5, pts)
	for trial := 0; trial < 200; trial++ {
		c := r.PointInRect(bounds)
		maxD := r.Range(1, 30)
		id, p, ok := g.Nearest(c, maxD)
		// Brute force.
		bestID, bestD, found := -1, maxD*maxD, false
		for bid, bp := range pts {
			d := bp.Dist2(c)
			if d < bestD || (d == bestD && found && bid < bestID) {
				bestID, bestD, found = bid, d, true
			}
		}
		if ok != found {
			t.Fatalf("trial %d: ok=%v found=%v", trial, ok, found)
		}
		if ok && id != bestID {
			t.Fatalf("trial %d: nearest %d (%v) vs brute %d", trial, id, p, bestID)
		}
	}
}

func TestNearestEmpty(t *testing.T) {
	g := NewGrid(geom.Square(10), 1, nil)
	if _, _, ok := g.Nearest(geom.Pt(5, 5), 100); ok {
		t.Error("Nearest on empty index should fail")
	}
}

// TestIDs checks the CSR build: every ID sits in exactly one bucket,
// the bucket of its point, ascending within the bucket.
func TestIDs(t *testing.T) {
	bounds := geom.Square(50)
	pts := randomPoints(400, bounds, 13)
	pts = append(pts, geom.Pt(0, 0), geom.Pt(50, 50), geom.Pt(-1, 60))
	g := NewGrid(bounds, 4, pts)
	if len(g.start) != g.NumBuckets()+1 || int(g.start[g.NumBuckets()]) != len(pts) {
		t.Fatalf("offsets end at %d over %d buckets, want %d", g.start[len(g.start)-1], g.NumBuckets(), len(pts))
	}
	seen := make([]bool, len(pts))
	for b := 0; b < g.NumBuckets(); b++ {
		prev := -1
		for _, e := range g.bucket(b) {
			id := int(e.id)
			if seen[id] {
				t.Fatalf("id %d listed twice", id)
			}
			seen[id] = true
			if g.Of(pts[id]) != b || e.p != pts[id] {
				t.Fatalf("id %d at %v stored in bucket %d, belongs in %d", id, e.p, b, g.Of(pts[id]))
			}
			if id <= prev {
				t.Fatalf("bucket %d not ascending: %d after %d", b, id, prev)
			}
			prev = id
		}
	}
	ids := g.IDs()
	sort.Ints(ids)
	if len(ids) != len(pts) {
		t.Fatalf("IDs len = %d", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Errorf("IDs[%d] = %d", i, id)
		}
	}
}

func BenchmarkBallQuery(b *testing.B) {
	g := NewGrid(geom.Square(100), 4, randomPoints(2000, geom.Square(100), 1))
	c := geom.Pt(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountBall(c, 4)
	}
}

func TestRectMatchesBruteForce(t *testing.T) {
	r := rng.New(55)
	bounds := geom.Square(100)
	pts := randomPoints(400, bounds, 54)
	g := NewGrid(bounds, 4, pts)
	for trial := 0; trial < 100; trial++ {
		a, b := r.PointInRect(bounds), r.PointInRect(bounds)
		q := geom.Rect{
			Min: geom.Pt(math.Min(a.X, b.X), math.Min(a.Y, b.Y)),
			Max: geom.Pt(math.Max(a.X, b.X), math.Max(a.Y, b.Y)),
		}
		got := g.Rect(q)
		sort.Ints(got)
		var want []int
		for id, p := range pts {
			if q.Contains(p) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch", trial)
			}
		}
		// The ball inscribed in the rectangle's bounding square is the
		// rectangle query filtered by distance.
		c, rad := q.Center(), math.Max(q.W(), q.H())/2
		var inBall []int
		g.VisitRect(geom.Rect{Min: geom.Pt(c.X-rad, c.Y-rad), Max: geom.Pt(c.X+rad, c.Y+rad)}, func(id int, p geom.Point) bool {
			if p.Dist2(c) <= rad*rad {
				inBall = append(inBall, id)
			}
			return true
		})
		sort.Ints(inBall)
		if ball := g.Ball(c, rad); len(ball) != len(inBall) {
			t.Fatalf("trial %d: Ball holds %d ids, the filtered rectangle %d", trial, len(ball), len(inBall))
		}
	}
	// Empty rect and early stop.
	if got := g.Rect(geom.Rect{}); got != nil {
		t.Errorf("empty rect = %v", got)
	}
	calls := 0
	g.VisitRect(bounds, func(int, geom.Point) bool { calls++; return calls < 5 })
	if calls != 5 {
		t.Errorf("early stop visited %d", calls)
	}
}
