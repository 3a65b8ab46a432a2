package core

import (
	"testing"

	"decor/internal/coverage"
	"decor/internal/failure"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/partition"
	"decor/internal/rng"
)

// listedOwners reads c's ownership through its node lists: the sensor
// id owning each listed point. A point listed twice fails the test.
func listedOwners(t *testing.T, label string, c *partition.LocalVoronoi) map[int]int {
	t.Helper()
	owner := map[int]int{}
	for n := 0; n < c.NumNodes(); n++ {
		id, _ := c.Node(n)
		for s := c.First(n); s >= 0; s = c.Next(s) {
			i := c.SlotPoint(s)
			if prev, dup := owner[i]; dup {
				t.Fatalf("%s: point %d listed by sensors %d and %d", label, i, prev, id)
			}
			owner[i] = id
		}
	}
	return owner
}

// checkVoronoiCells checks c's ownership of the tracked points against
// a brute-force scan of m's sensors (nearest within rc, closed ball,
// lowest id on equal distance): each tracked point is listed by exactly
// its owner's node, an orphan by none, and no node lists any other
// point.
func checkVoronoiCells(t *testing.T, label string, m *coverage.Map, c *partition.LocalVoronoi, tracked []int, rc float64) {
	t.Helper()
	owner := listedOwners(t, label, c)
	rc2 := rc * rc
	for _, i := range tracked {
		q := m.Point(i)
		want, wantD2 := -1, 0.0
		m.VisitSensors(func(id int, p geom.Point, _ float64) {
			d2 := p.Dist2(q)
			if d2 <= rc2 && (want < 0 || d2 < wantD2 || (d2 == wantD2 && id < want)) {
				want, wantD2 = id, d2
			}
		})
		got, listed := owner[i]
		if !listed {
			got = -1
		}
		if got != want {
			t.Fatalf("%s: point %d at %v owned by %d, brute force says %d", label, i, q, got, want)
		}
		delete(owner, i)
	}
	for i, id := range owner {
		t.Fatalf("%s: sensor %d lists untracked point %d", label, id, i)
	}
}

// checkRunStart checks the nodes newVoronoiCells builds: the run-start
// owners in ascending id order, each owning at least one tracked point.
func checkRunStart(t *testing.T, label string, c *partition.LocalVoronoi) {
	t.Helper()
	prev := -1
	for n := 0; n < c.NumNodes(); n++ {
		id, _ := c.Node(n)
		if c.First(n) < 0 {
			t.Fatalf("%s: run-start node %d owns no tracked point", label, id)
		}
		if n > 0 && id <= prev {
			t.Fatalf("%s: run-start nodes not ascending: %d after %d", label, id, prev)
		}
		prev = id
	}
}

// TestVoronoiOwnership drives the deficit-only ownership directly: after
// construction and after every placement it must equal a brute-force
// nearest-sensor scan, including sensors at identical positions,
// equal-distance ties between different ids and points at exactly rc.
func TestVoronoiOwnership(t *testing.T) {
	t.Run("lattice", func(t *testing.T) {
		// Integer lattice with rc = 5: lattice points at distance
		// exactly 5 (3-4-5 triangles) sit on the closed ball's rim.
		field := geom.Square(30)
		var pts []geom.Point
		for y := 0; y <= 30; y++ {
			for x := 0; x <= 30; x++ {
				pts = append(pts, geom.Pt(float64(x), float64(y)))
			}
		}
		const rc = 5
		m := coverage.New(field, pts, 2, 2)
		for _, s := range []struct {
			id   int
			x, y float64
		}{
			{0, 5, 5}, {1, 5, 5}, // identical positions: id 0 wins
			{2, 20, 5}, {3, 26, 5}, // x = 23 is equidistant: id 2 wins
			{5, 10, 20}, {4, 16, 20}, // x = 13 is equidistant: id 4 wins
			{6, 25, 25},
		} {
			m.AddSensor(s.id, geom.Pt(s.x, s.y))
		}
		tracked := m.UncoveredPoints()
		if len(tracked) == m.NumPoints() {
			t.Fatal("no k-covered point: the tracked-set check is vacuous")
		}
		c := newVoronoiCells(m, rc)
		checkRunStart(t, "lattice start", c)
		checkVoronoiCells(t, "lattice start", m, c, tracked, rc)
		id := 7
		for _, p := range []geom.Point{
			geom.Pt(5, 5),   // on top of sensors 0 and 1: ties keep them
			geom.Pt(8, 5),   // steals the strictly closer points
			geom.Pt(23, 5),  // on the 2/3 bisector
			geom.Pt(15, 12), // orphan region
			geom.Pt(15, 12), // the same point twice
			geom.Pt(10, 5),  // exactly rc from sensors 0, 1 and 7
			geom.Pt(30, 30),
		} {
			m.AddSensor(id, p)
			addVoronoiNode(m, c, rc, id, p)
			checkVoronoiCells(t, "lattice placement", m, c, tracked, rc)
			id++
		}
	})
	t.Run("random", func(t *testing.T) {
		for _, rc := range []float64{8, 14.142135623730951} {
			for seed := uint64(1); seed <= 3; seed++ {
				r := rng.New(seed)
				field := geom.Square(40)
				m := coverage.New(field, lowdisc.Halton{}.Points(600, field), 4, 3)
				var placed []geom.Point
				for id := 0; id < 25; id++ {
					p := r.PointInRect(field)
					if id%5 == 4 {
						p = placed[r.Intn(len(placed))] // duplicate position
					}
					m.AddSensor(id, p)
					placed = append(placed, p)
				}
				tracked := m.UncoveredPoints()
				c := newVoronoiCells(m, rc)
				checkRunStart(t, "random start", c)
				checkVoronoiCells(t, "random start", m, c, tracked, rc)
				for id := 25; id < 65; id++ {
					p := m.Point(r.Intn(m.NumPoints()))
					m.AddSensor(id, p)
					addVoronoiNode(m, c, rc, id, p)
					checkVoronoiCells(t, "random placement", m, c, tracked, rc)
				}
			}
		}
	})
}

// holedMap deploys a multi-tile field to full k-coverage with the
// Voronoi engine, then applies random failures and an area failure
// wide enough to leave orphan points: deficient points beyond rc of
// every sensor. This is the repair regime a resident field session
// runs in, unlike the sparse starts of the other parity tests.
func holedMap(t *testing.T, seed uint64, k int, rc float64) *coverage.Map {
	t.Helper()
	m := multiTileMap(t, seed, k, -1)
	r := rng.New(seed)
	if res := (VoronoiDECOR{Rc: rc}).Deploy(m, r, Options{}); !m.FullyCovered() {
		t.Fatalf("initial deployment left %d deficient points (%d placed)", m.NumDeficient(), len(res.Placed))
	}
	failure.Apply(m, failure.Random{Fraction: 0.01}.Select(m, r))
	hole := geom.Disk{Center: r.PointInRect(m.Field().Inset(30)), R: rc + 6}
	failure.Apply(m, failure.Area{Disk: hole}.Select(m, r))
	orphans := 0
	for _, i := range m.UncoveredPoints() {
		if m.CountSensorsInBall(m.Point(i), rc) == 0 {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatal("the area failure left no orphan points")
	}
	return m
}

// TestVoronoiRepairParity repairs covered fields with a hole through
// the engine and the rescan oracle (eager whole-field partition); they
// must agree byte for byte, including under Sequential, a smaller
// new-sensor radius and placement caps.
func TestVoronoiRepairParity(t *testing.T) {
	for _, rc := range []float64{8, 14.142135623730951} {
		for _, k := range []int{1, 3} {
			base := holedMap(t, uint64(k)+7, k, rc)
			for _, tc := range []struct {
				label string
				v     VoronoiDECOR
				opt   Options
			}{
				{"plain", VoronoiDECOR{Rc: rc}, Options{}},
				{"sequential", VoronoiDECOR{Rc: rc, Sequential: true}, Options{}},
				{"newRs", VoronoiDECOR{Rc: rc, NewRs: 3}, Options{}},
				{"cap1", VoronoiDECOR{Rc: rc}, Options{MaxPlacements: 1}},
				{"cap5", VoronoiDECOR{Rc: rc}, Options{MaxPlacements: 5}},
			} {
				ref := voronoiRescan(tc.v, base.Clone(), tc.opt)
				m := base.Clone()
				got := tc.v.Deploy(m, rng.New(1), tc.opt)
				assertSameResult(t, "repair "+tc.label+" "+got.Method, ref, got)
				if len(got.Placed) == 0 {
					t.Fatalf("repair %s placed nothing", tc.label)
				}
				if !got.Capped && !m.FullyCovered() {
					t.Fatalf("repair %s left %d deficient points", tc.label, m.NumDeficient())
				}
			}
		}
	}
}

// A Voronoi run never builds an rc adjacency: new sensors claim points
// through the map's point index. Only the new-sensor radius's adjacency
// (the benefit cache's) lands in the map's point set.
func TestVoronoiDeployBuildsNoRcAdjacency(t *testing.T) {
	field := geom.Square(40)
	ps := coverage.NewPointSet(field, lowdisc.Halton{}.Points(300, field), 4)
	m := coverage.NewMap(ps, 2)
	r := rng.New(3)
	for id := 0; id < 20; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	VoronoiDECOR{Rc: 8}.Deploy(m, rng.New(3), Options{})
	if ps.BuiltNeighborhoods(8) != nil {
		t.Fatal("Deploy built the rc adjacency")
	}
	if ps.BuiltNeighborhoods(m.Rs()) == nil {
		t.Fatal("Deploy built no rs adjacency: the check above proves nothing")
	}
}
