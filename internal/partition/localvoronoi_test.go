package partition

import (
	"slices"
	"testing"

	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// testSensor is one sensor of a brute-force reference.
type testSensor struct {
	id  int
	pos geom.Point
}

// place adds sensor id at p as the newest node of v and offers it every
// point of pts, the far ones included: the partition must ignore points
// beyond rc and untracked points itself.
func place(v *LocalVoronoi, pts []geom.Point, id int, p geom.Point) {
	n := v.AddNode(id, p)
	for i, q := range pts {
		v.Offer(i, n, p.Dist2(q))
	}
}

// owned returns the points node n owns, ascending.
func owned(v *LocalVoronoi, n int) []int {
	var out []int
	for s := v.First(n); s >= 0; s = v.Next(s) {
		out = append(out, v.SlotPoint(s))
	}
	slices.Sort(out)
	return out
}

// ownerOf returns the sensor owning sample point i (-1 = orphan) and its
// squared distance to the point; ok is false when i is not tracked.
func ownerOf(v *LocalVoronoi, i int) (id int, d2 float64, ok bool) {
	s := v.slotOf[i] - 1
	if s < 0 {
		return -1, 0, false
	}
	if o := v.slots[s].owner; o >= 0 {
		return v.nodes[o].id, v.slots[s].d2, true
	}
	return -1, 0, true
}

// track tracks every listed point of pts and offers it every sensor, the
// far ones included, then links the run-start owners.
func track(v *LocalVoronoi, pts []geom.Point, tracked []int, sensors []testSensor) {
	pos := map[int]geom.Point{}
	for _, s := range sensors {
		pos[s.id] = s.pos
	}
	for _, i := range tracked {
		v.Track(i)
		for _, s := range sensors {
			v.Candidate(i, s.id, s.pos.Dist2(pts[i]))
		}
	}
	v.Link(func(id int) geom.Point { return pos[id] })
}

// nearest is the brute-force owner of q: the nearest sensor within rc,
// the lower id on equal distance, -1 when none is within rc.
func nearest(sensors []testSensor, q geom.Point, rc float64) (int, float64) {
	best, bestD2 := -1, 0.0
	for _, s := range sensors {
		d2 := s.pos.Dist2(q)
		if d2 <= rc*rc && (best < 0 || d2 < bestD2 || (d2 == bestD2 && s.id < best)) {
			best, bestD2 = s.id, d2
		}
	}
	return best, bestD2
}

// checkLocalVoronoi checks v against a brute-force scan of sensors and
// checks its list structure: every tracked point's slot maps back to it,
// its owner and distance are the brute-force ones, and each node's
// doubly linked list holds exactly the points it owns.
func checkLocalVoronoi(t *testing.T, label string, v *LocalVoronoi, pts []geom.Point, sensors []testSensor, rc float64) {
	t.Helper()
	for s, sl := range v.slots {
		if v.slotOf[sl.pt] != int32(s)+1 {
			t.Fatalf("%s: point %d maps to slot %d, want %d", label, sl.pt, v.slotOf[sl.pt]-1, s)
		}
		want, wantD2 := nearest(sensors, pts[sl.pt], rc)
		got, gotD2, ok := ownerOf(v, int(sl.pt))
		if !ok || got != want || (got >= 0 && gotD2 != wantD2) {
			t.Fatalf("%s: point %d owned by %d at distance² %v (tracked %v), brute force says %d at %v",
				label, sl.pt, got, gotD2, ok, want, wantD2)
		}
	}
	listed := make([]int, len(v.slots))
	for n, nd := range v.nodes {
		prev := int32(-1)
		for s := nd.head; s >= 0; s = v.slots[s].next {
			if v.slots[s].owner != int32(n) || v.slots[s].prev != prev {
				t.Fatalf("%s: node %d lists slot %d owned by node %d (prev %d, want %d)",
					label, nd.id, s, v.slots[s].owner, v.slots[s].prev, prev)
			}
			listed[s]++
			prev = s
		}
	}
	for s, sl := range v.slots {
		want := 0
		if sl.owner >= 0 {
			want = 1
		}
		if listed[s] != want {
			t.Fatalf("%s: slot %d (owner %d) listed %d times", label, s, sl.owner, listed[s])
		}
	}
}

func TestVoronoiBasics(t *testing.T) {
	// Point 3 is never tracked.
	pts := []geom.Point{{X: 10, Y: 10}, {X: 20, Y: 10}, {X: 90, Y: 90}, {X: 13, Y: 10}}
	const rc = 15
	v := NewLocalVoronoi(len(pts), 3, rc)
	track(v, pts, []int{0, 1, 2}, nil)
	if len(v.slots) != 3 || v.NumNodes() != 0 {
		t.Fatalf("tracked %d, nodes %d", len(v.slots), v.NumNodes())
	}
	for i := 0; i < 3; i++ {
		if id, _, ok := ownerOf(v, i); !ok || id != -1 {
			t.Errorf("point %d should start orphaned, got owner %d (tracked %v)", i, id, ok)
		}
	}
	place(v, pts, 1, geom.Pt(12, 10))
	if got := owned(v, 0); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("node 0 owns %v", got)
	}
	if id, _, _ := ownerOf(v, 2); id != -1 {
		t.Error("far point should remain orphan")
	}
	if id, _, ok := ownerOf(v, 3); ok || id != -1 {
		t.Error("untracked point should have no owner")
	}
	// A closer sensor steals point 1.
	place(v, pts, 2, geom.Pt(19, 10))
	if got := owned(v, 1); !slices.Equal(got, []int{1}) {
		t.Errorf("node 1 owns %v", got)
	}
	if got := owned(v, 0); !slices.Equal(got, []int{0}) {
		t.Errorf("node 0 keeps %v", got)
	}
	if id, d2, _ := ownerOf(v, 1); id != 2 || d2 != 1 {
		t.Errorf("point 1 owned by %d at distance² %v", id, d2)
	}
	sensors := []testSensor{{1, geom.Pt(12, 10)}, {2, geom.Pt(19, 10)}}
	checkLocalVoronoi(t, "basics", v, pts, sensors, rc)

	// Candidates choose the run-start owners, Link makes them nodes
	// ascending by id; sensor 6 is in range of point 1 but farther than
	// sensor 4, and sensor 7 is in range of nothing tracked.
	w := NewLocalVoronoi(len(pts), 3, rc)
	start := []testSensor{{9, geom.Pt(80, 90)}, {6, geom.Pt(30, 10)}, {4, geom.Pt(15, 10)}, {7, geom.Pt(50, 50)}}
	track(w, pts, []int{1, 2, 0}, start)
	if w.NumNodes() != 2 {
		t.Fatalf("nodes = %d", w.NumNodes())
	}
	for n, want := range []testSensor{start[2], start[0]} {
		if id, p := w.Node(n); id != want.id || p != want.pos {
			t.Errorf("node %d is sensor %d at %v, want %d at %v", n, id, p, want.id, want.pos)
		}
	}
	if got := owned(w, 0); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("sensor 4 owns %v", got)
	}
	checkLocalVoronoi(t, "linked", w, pts, start, rc)
}

func TestVoronoiTieBreaksByID(t *testing.T) {
	pts := []geom.Point{{X: 50, Y: 50}}
	v := NewLocalVoronoi(1, 1, 20)
	v.Track(0)
	v.Link(nil)
	place(v, pts, 7, geom.Pt(45, 50))
	place(v, pts, 3, geom.Pt(55, 50)) // same distance, lower id
	if id, _, _ := ownerOf(v, 0); id != 3 {
		t.Errorf("tie should go to lower id, got %d", id)
	}
	place(v, pts, 5, geom.Pt(50, 45)) // same distance, higher id
	if id, _, _ := ownerOf(v, 0); id != 3 {
		t.Errorf("tie should stay with lower id, got %d", id)
	}
	// The same rule picks the run-start owner, in either offer order.
	for _, order := range [][]testSensor{
		{{7, geom.Pt(45, 50)}, {3, geom.Pt(55, 50)}, {5, geom.Pt(50, 45)}},
		{{5, geom.Pt(50, 45)}, {3, geom.Pt(55, 50)}, {7, geom.Pt(45, 50)}},
	} {
		w := NewLocalVoronoi(1, 1, 20)
		track(w, pts, []int{0}, order)
		if id, _, _ := ownerOf(w, 0); id != 3 {
			t.Errorf("run-start tie should go to lower id, got %d", id)
		}
	}
	for _, c := range []struct {
		id    int
		d2    float64
		owner int
		oD2   float64
		takes bool
	}{
		{3, 25, 7, 25, true},
		{7, 25, 3, 25, false},
		{7, 24, 3, 25, true},
		{3, 26, 7, 25, false},
		{3, 25, 3, 25, false},
		{3, 400, -1, 0, true},  // exactly rc: the ball is closed
		{3, 401, -1, 0, false}, // beyond rc, even from an orphan
	} {
		if got := v.takes(c.id, c.d2, c.owner, c.oD2); got != c.takes {
			t.Errorf("takes(%d, %v, %d, %v) = %v", c.id, c.d2, c.owner, c.oD2, got)
		}
	}
}

// Property: under a stream of sensors joining a partition whose
// run-start owners were chosen from every sensor — ids in random order,
// repeated positions, points offered from beyond rc — the lists stay
// consistent and every owner is genuinely the nearest in-range sensor.
// Sensors never leave: placement only adds them.
func TestVoronoiInvariantsUnderChurn(t *testing.T) {
	r := rng.New(31)
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(400, field)
	const rc = 12
	ids := r.Perm(300)
	var sensors []testSensor
	for _, id := range ids[:40] {
		sensors = append(sensors, testSensor{id, r.PointInRect(field)})
	}
	var tracked []int
	for i := range pts {
		if r.Float64() < 0.6 {
			tracked = append(tracked, i)
		}
	}
	v := NewLocalVoronoi(len(pts), len(tracked), rc)
	track(v, pts, tracked, sensors)
	checkLocalVoronoi(t, "start", v, pts, sensors, rc)
	for step, id := range ids[40:] {
		p := r.PointInRect(field)
		if step%7 == 3 {
			p = sensors[r.Intn(len(sensors))].pos
		}
		place(v, pts, id, p)
		sensors = append(sensors, testSensor{id, p})
		if step%50 == 0 {
			checkLocalVoronoi(t, "churn", v, pts, sensors, rc)
		}
	}
	checkLocalVoronoi(t, "end", v, pts, sensors, rc)
}
