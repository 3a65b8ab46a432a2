package coverage

import (
	"maps"
	"reflect"
	"testing"

	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// disk is one live sensor of a brute-force recount.
type disk struct {
	p geom.Point
	r float64
}

// assertRecount checks every count-derived quantity of m against a
// brute-force recount from the live sensors: per-point counts, the
// deficient totals per tile and overall, the lowest deficient point,
// and the scans built on the counts.
func assertRecount(t *testing.T, m *Map, live map[int]disk) {
	t.Helper()
	k := m.K()
	want := make([]int, m.NumPoints())
	tileOf := make([]int, m.NumPoints())
	for tl := 0; tl < m.NumTiles(); tl++ {
		for _, i := range m.TilePoints(tl) {
			tileOf[i] = tl
		}
	}
	tileDef := make([]int, m.NumTiles())
	deficient, lowest, hist := 0, -1, []int{0}
	for i := range want {
		for _, s := range live {
			if s.p.Dist2(m.Point(i)) <= s.r*s.r {
				want[i]++
			}
		}
		if want[i] < k {
			deficient++
			tileDef[tileOf[i]]++
			if lowest < 0 {
				lowest = i
			}
		}
		for want[i] >= len(hist) {
			hist = append(hist, 0)
		}
		hist[want[i]]++
	}
	if got := m.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counts diverge from the recount:\n got %v\nwant %v", got, want)
	}
	if m.NumDeficient() != deficient || m.FullyCovered() != (deficient == 0) {
		t.Fatalf("NumDeficient = %d, want %d", m.NumDeficient(), deficient)
	}
	for tl, d := range tileDef {
		if m.DeficientInTile(tl) != d {
			t.Fatalf("tile %d: DeficientInTile = %d, want %d", tl, m.DeficientInTile(tl), d)
		}
	}
	if got := m.LowestDeficient(); got != lowest {
		t.Fatalf("LowestDeficient = %d, want %d", got, lowest)
	}
	if unc := m.UncoveredPoints(); len(unc) != deficient || (deficient > 0 && unc[0] != lowest) {
		t.Fatalf("UncoveredPoints has %d points, want %d from %d", len(unc), deficient, lowest)
	}
	if got := m.CoverageHistogram(); !reflect.DeepEqual(got, hist) {
		t.Fatalf("CoverageHistogram = %v, want %v", got, hist)
	}
	if got, want := m.CoverageFrac(k), float64(len(want)-deficient)/float64(len(want)); got != want {
		t.Fatalf("CoverageFrac(k) = %v, want %v", got, want)
	}
	maxID, some := -1, false
	for id := range live {
		maxID, some = max(maxID, id), true
	}
	if got, ok := m.MaxSensorID(); ok != some || (ok && got != maxID) {
		t.Fatalf("MaxSensorID = %d, %v; want %d, %v", got, ok, maxID, some)
	}
}

// multiTileMap builds a 12000-point field spanning several tiles.
func multiTileMap(k int) *Map {
	field := geom.Square(100)
	return New(field, lowdisc.Halton{}.Points(12000, field), 4, k)
}

// TestTiledParityRandomOps drives a multi-tile map through a randomized
// add/remove/SetK/Clone sequence and checks every count-derived
// quantity against a brute-force recount. Clones must evolve
// independently of the maps they were taken from.
func TestTiledParityRandomOps(t *testing.T) {
	m := multiTileMap(2)
	if m.NumTiles() < 4 {
		t.Fatalf("field spans %d tiles, want several", m.NumTiles())
	}
	r := rng.New(7)
	live := map[int]disk{}
	type frozen struct {
		m    *Map
		live map[int]disk
	}
	var originals []frozen
	next := 0
	for step := 0; step < 240; step++ {
		switch {
		case len(live) > 0 && r.Bool(0.3):
			ids := m.SensorIDs()
			id := ids[r.Intn(len(ids))]
			delete(live, id)
			if !m.RemoveSensor(id) {
				t.Fatalf("remove %d failed", id)
			}
		case r.Bool(0.08):
			m.SetK(1 + r.Intn(4))
		case r.Bool(0.05):
			originals = append(originals, frozen{m, maps.Clone(live)})
			m = m.Clone()
		default:
			s := disk{r.PointInRect(m.Field()), 2 + 4*r.Float64()}
			m.AddSensorRadius(next, s.p, s.r)
			live[next] = s
			next++
		}
		if step%20 == 0 {
			assertRecount(t, m, live)
		}
	}
	assertRecount(t, m, live)
	m.RedundantSensors()
	assertRecount(t, m, live) // RedundantSensors must restore state
	if len(originals) == 0 {
		t.Fatal("the op sequence took no clone")
	}
	for _, o := range originals {
		assertRecount(t, o.m, o.live)
	}
}

// TestTiledOverflowExact stacks sensors on one spot until counts pass
// 255, with a requirement past 255 too, and checks counts and deficits
// stay exact on the way up and back down.
func TestTiledOverflowExact(t *testing.T) {
	field := geom.Square(10)
	m := New(field, lowdisc.Halton{}.Points(50, field), 4, 300)
	center := geom.Point{X: 5, Y: 5}
	live := map[int]disk{}
	for id := 0; id < 300; id++ {
		m.AddSensor(id, center)
		live[id] = disk{center, 4}
	}
	assertRecount(t, m, live)
	m.SetK(280)
	assertRecount(t, m, live)
	for id := 0; id < 300; id += 2 {
		m.RemoveSensor(id)
		delete(live, id)
	}
	assertRecount(t, m, live)
	for id := range live {
		m.RemoveSensor(id)
		delete(live, id)
	}
	assertRecount(t, m, live)
	if m.NumDeficient() != m.NumPoints() {
		t.Fatalf("expected all points deficient after removing everything")
	}
}

// TestTiledCloneIndependent checks Clone copies the counts and the tile
// summaries deeply enough that the original and the clone evolve
// independently.
func TestTiledCloneIndependent(t *testing.T) {
	m := multiTileMap(2)
	r := rng.New(11)
	live := map[int]disk{}
	for id := 0; id < 30; id++ {
		s := disk{r.PointInRect(m.Field()), 4}
		m.AddSensor(id, s.p)
		live[id] = s
	}
	c := m.Clone()
	cLive := maps.Clone(live)
	assertRecount(t, c, cLive)
	// Diverge the clone; the original must not move.
	c.AddSensor(1000, geom.Point{X: 50, Y: 50})
	cLive[1000] = disk{geom.Point{X: 50, Y: 50}, 4}
	c.SetK(3)
	assertRecount(t, c, cLive)
	assertRecount(t, m, live)
	// And the other direction.
	m.RemoveSensor(0)
	delete(live, 0)
	assertRecount(t, m, live)
	assertRecount(t, c, cLive)
}

// TestTileGeometry sanity-checks the CSR point bucketing: every point
// in exactly one tile, ascending within the tile, and VisitTilesInDisk
// covers the tiles of all points in range.
func TestTileGeometry(t *testing.T) {
	field := geom.Square(40)
	m := New(field, lowdisc.Halton{}.Points(20000, field), 4, 1)
	if m.NumTiles() < 9 {
		t.Fatalf("20000 points span %d tiles, want several per axis", m.NumTiles())
	}
	tileOf := make([]int, m.NumPoints())
	for i := range tileOf {
		tileOf[i] = -1
	}
	for tl := 0; tl < m.NumTiles(); tl++ {
		prev := int32(-1)
		for _, i := range m.TilePoints(tl) {
			if i <= prev {
				t.Fatalf("tile %d point list not ascending: %d after %d", tl, i, prev)
			}
			prev = i
			if tileOf[i] >= 0 {
				t.Fatalf("point %d in tiles %d and %d", i, tileOf[i], tl)
			}
			tileOf[i] = tl
		}
	}
	for i, tl := range tileOf {
		if tl < 0 {
			t.Fatalf("point %d in no tile", i)
		}
	}
	// Disk enumeration covers the tile of every in-range point.
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		c := r.PointInRect(field)
		rad := 1 + 9*r.Float64()
		hit := map[int]bool{}
		m.VisitTilesInDisk(c, rad, func(tl int) { hit[tl] = true })
		m.VisitPointsInBall(c, rad, func(i int, _ geom.Point) bool {
			if !hit[tileOf[i]] {
				t.Fatalf("VisitTilesInDisk missed tile %d of in-range point %d", tileOf[i], i)
			}
			return true
		})
	}
}
