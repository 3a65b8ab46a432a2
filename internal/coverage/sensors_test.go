package coverage

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// liveIDs returns live's IDs in ascending order.
func liveIDs(live map[int]disk) []int {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// assertSensors checks every sensor query of m against live, the
// brute-force list of deployed sensors: NumSensors, SensorIDs and
// VisitSensors in ascending ID order, MaxSensorID, SensorPos and
// SensorRadius of live and absent IDs, and the ball queries at random
// centres (some outside the field) and radii (0 and field-spanning
// included).
func assertSensors(t *testing.T, m *Map, live map[int]disk, absent []int, r *rng.RNG) {
	t.Helper()
	ids := liveIDs(live)
	if m.NumSensors() != len(ids) {
		t.Fatalf("NumSensors = %d, want %d", m.NumSensors(), len(ids))
	}
	if got := m.SensorIDs(); !slices.Equal(got, ids) {
		t.Fatalf("SensorIDs = %v, want %v", got, ids)
	}
	if got, ok := m.MaxSensorID(); ok != (len(ids) > 0) || ok && got != ids[len(ids)-1] {
		t.Fatalf("MaxSensorID = %d, %v with %d sensors", got, ok, len(ids))
	}
	var visited []int
	m.VisitSensors(func(id int, p geom.Point, rs float64) {
		if d := live[id]; d.p != p || d.r != rs {
			t.Fatalf("VisitSensors gave %d at %v radius %g, want %v radius %g", id, p, rs, d.p, d.r)
		}
		visited = append(visited, id)
	})
	if !slices.Equal(visited, ids) {
		t.Fatalf("VisitSensors order %v, want %v", visited, ids)
	}
	for id, d := range live {
		if p, ok := m.SensorPos(id); !ok || p != d.p {
			t.Fatalf("SensorPos(%d) = %v, %v; want %v", id, p, ok, d.p)
		}
		if rs, ok := m.SensorRadius(id); !ok || rs != d.r {
			t.Fatalf("SensorRadius(%d) = %g, %v; want %g", id, rs, ok, d.r)
		}
	}
	for _, id := range absent {
		if _, ok := m.SensorPos(id); ok {
			t.Fatalf("SensorPos(%d) found a removed sensor", id)
		}
		if _, ok := m.SensorRadius(id); ok {
			t.Fatalf("SensorRadius(%d) found a removed sensor", id)
		}
	}
	wide := m.Field().Inset(-10)
	for q := 0; q < 6; q++ {
		c := r.PointInRect(wide)
		rad := []float64{0, 3, 9, 25, 500, 1 + 12*r.Float64()}[q]
		if q == 0 && len(ids) > 0 {
			c = live[ids[r.Intn(len(ids))]].p // radius 0 on a sensor finds it
		}
		var want []int
		for _, id := range ids {
			if live[id].p.Dist2(c) <= rad*rad {
				want = append(want, id)
			}
		}
		where := fmt.Sprintf("ball(%v, %g)", c, rad)
		if got := m.SensorsInBall(c, rad); !slices.Equal(got, want) {
			t.Fatalf("SensorsInBall %s = %v, want %v", where, got, want)
		}
		if got := m.AppendSensorsInBall([]int{-1}, c, rad); got[0] != -1 || !slices.Equal(got[1:], want) {
			t.Fatalf("AppendSensorsInBall %s = %v, want [-1] + %v", where, got, want)
		}
		var got []int
		m.VisitSensorsInBall(c, rad, func(id int, p geom.Point) bool {
			if p != live[id].p {
				t.Fatalf("VisitSensorsInBall %s gave %d at %v, want %v", where, id, p, live[id].p)
			}
			got = append(got, id)
			return true
		})
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("VisitSensorsInBall %s = %v, want %v", where, got, want)
		}
		if n := m.CountSensorsInBall(c, rad); n != len(want) {
			t.Fatalf("CountSensorsInBall %s = %d, want %d", where, n, len(want))
		}
	}
}

// TestSensorTableDifferential drives the sensor table through random
// adds (default radius, own radius, at a sample point, outside the
// field), removes, re-adds of freed IDs (so freed slots are reused) and
// clones followed by divergent edits on both copies, and checks every
// sensor query against a brute-force list after every step.
func TestSensorTableDifferential(t *testing.T) {
	field := geom.Square(60)
	m := New(field, lowdisc.Halton{}.Points(3000, field), 4, 2)
	m.PointNeighborhoods(m.Rs()) // lets AddSensorAtPoint walk the adjacency
	r := rng.New(17)
	type copyState struct {
		m    *Map
		live map[int]disk
		gone []int
	}
	cur := copyState{m: m, live: map[int]disk{}}
	var frozen []copyState
	next := 0
	step := func(s *copyState) {
		m := s.m
		switch op := r.Intn(10); {
		case op < 3 || len(s.live) == 0:
			p := r.PointInRect(m.Field().Inset(-3))
			m.AddSensor(next, p)
			s.live[next] = disk{p, m.Rs()}
			next++
		case op < 4:
			d := disk{r.PointInRect(m.Field()), []float64{1.5, 4, 7.25}[r.Intn(3)]}
			m.AddSensorRadius(next, d.p, d.r)
			s.live[next] = d
			next++
		case op < 5:
			i := r.Intn(m.NumPoints())
			m.AddSensorAtPoint(next, i)
			s.live[next] = disk{m.Point(i), m.Rs()}
			next++
		case op < 8:
			ids := liveIDs(s.live)
			id := ids[r.Intn(len(ids))]
			if !m.RemoveSensor(id) {
				t.Fatalf("RemoveSensor(%d) failed", id)
			}
			if m.RemoveSensor(id) {
				t.Fatalf("RemoveSensor(%d) succeeded twice", id)
			}
			delete(s.live, id)
			s.gone = append(s.gone, id)
		case len(s.gone) > 0:
			// Re-add a freed ID elsewhere, into a reused slot.
			j := r.Intn(len(s.gone))
			id := s.gone[j]
			s.gone = slices.Delete(s.gone, j, j+1)
			d := disk{r.PointInRect(m.Field()), []float64{4, 6}[r.Intn(2)]}
			m.AddSensorRadius(id, d.p, d.r)
			s.live[id] = d
		}
	}
	for i := 0; i < 500; i++ {
		step(&cur)
		if i%60 == 59 {
			// Freeze the current map and continue on a clone; edit the
			// frozen copy too, so both diverge from the moment of the copy.
			frozen = append(frozen, cur)
			cur = copyState{m: cur.m.Clone(), live: maps.Clone(cur.live), gone: slices.Clone(cur.gone)}
			last := &frozen[len(frozen)-1]
			for j := 0; j < 5; j++ {
				step(last)
			}
			assertSensors(t, last.m, last.live, last.gone, r)
		}
		assertSensors(t, cur.m, cur.live, cur.gone, r)
		if i%50 == 0 {
			assertRecount(t, cur.m, cur.live)
		}
	}
	// A live ID panics and leaves the map untouched; every copy still
	// matches its own list.
	ids := cur.m.SensorIDs()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-adding live sensor id did not panic")
			}
		}()
		cur.m.AddSensorRadius(ids[0], geom.Pt(1, 1), 2)
	}()
	assertSensors(t, cur.m, cur.live, cur.gone, r)
	assertRecount(t, cur.m, cur.live)
	for _, f := range frozen {
		assertSensors(t, f.m, f.live, f.gone, r)
		assertRecount(t, f.m, f.live)
	}
}
