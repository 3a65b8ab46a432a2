package coverage

import (
	"testing"

	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

func newTestMap(k int) *Map {
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(500, field)
	return New(field, pts, 4, k)
}

func TestNewValidation(t *testing.T) {
	field := geom.Square(10)
	pts := []geom.Point{{X: 5, Y: 5}}
	for _, bad := range []func(){
		func() { New(field, pts, 0, 1) },
		func() { New(field, pts, -1, 1) },
		func() { New(field, pts, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid parameters")
				}
			}()
			bad()
		}()
	}
}

func TestAddRemoveSensorCounts(t *testing.T) {
	field := geom.Square(20)
	pts := []geom.Point{{X: 5, Y: 5}, {X: 6, Y: 5}, {X: 15, Y: 15}}
	m := New(field, pts, 4, 1)
	if m.FullyCovered() {
		t.Error("empty map should not be covered")
	}
	if m.NumDeficient() != 3 {
		t.Errorf("NumDeficient = %d", m.NumDeficient())
	}
	m.AddSensor(1, geom.Pt(5, 5))
	if m.Count(0) != 1 || m.Count(1) != 1 || m.Count(2) != 0 {
		t.Errorf("counts = %d %d %d", m.Count(0), m.Count(1), m.Count(2))
	}
	if m.NumDeficient() != 1 {
		t.Errorf("NumDeficient = %d", m.NumDeficient())
	}
	m.AddSensor(2, geom.Pt(15, 15))
	if !m.FullyCovered() {
		t.Error("should be fully covered now")
	}
	if !m.RemoveSensor(1) {
		t.Error("RemoveSensor failed")
	}
	if m.Count(0) != 0 || m.NumDeficient() != 2 {
		t.Errorf("after removal: count=%d deficient=%d", m.Count(0), m.NumDeficient())
	}
	if m.RemoveSensor(1) {
		t.Error("double remove should fail")
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	m := newTestMap(1)
	m.AddSensor(1, geom.Pt(5, 5))
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddSensor should panic")
		}
	}()
	m.AddSensor(1, geom.Pt(6, 6))
}

func TestDeficitAndBenefit(t *testing.T) {
	field := geom.Square(20)
	pts := []geom.Point{{X: 5, Y: 5}, {X: 6, Y: 5}, {X: 12, Y: 5}}
	m := New(field, pts, 4, 3)
	if m.Deficit(0) != 3 {
		t.Errorf("Deficit = %d, want 3", m.Deficit(0))
	}
	// Benefit at (5.5, 5): covers points 0 and 1 (deficit 3 each), not 2.
	if got := m.Benefit(geom.Pt(5.5, 5)); got != 6 {
		t.Errorf("Benefit = %d, want 6", got)
	}
	m.AddSensor(1, geom.Pt(5.5, 5))
	if got := m.Benefit(geom.Pt(5.5, 5)); got != 4 {
		t.Errorf("Benefit after add = %d, want 4", got)
	}
	// Over-covered points contribute zero.
	m.AddSensor(2, geom.Pt(5.5, 5.1))
	m.AddSensor(3, geom.Pt(5.5, 4.9))
	m.AddSensor(4, geom.Pt(5.4, 5))
	if got := m.Benefit(geom.Pt(5.5, 5)); got != 0 {
		t.Errorf("Benefit over-covered = %d, want 0", got)
	}
}

func TestBenefitWithPerceived(t *testing.T) {
	field := geom.Square(20)
	pts := []geom.Point{{X: 5, Y: 5}, {X: 6, Y: 5}}
	m := New(field, pts, 4, 2)
	// Perceived: point 0 unknown (-1), point 1 has count 1.
	got := m.BenefitWith(geom.Pt(5.5, 5), func(i int) int {
		if i == 0 {
			return -1
		}
		return 1
	})
	if got != 1 {
		t.Errorf("BenefitWith = %d, want 1", got)
	}
}

func TestCoverageFrac(t *testing.T) {
	field := geom.Square(20)
	pts := []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 15}}
	m := New(field, pts, 4, 2)
	if m.CoverageFrac(1) != 0 {
		t.Error("initial frac should be 0")
	}
	m.AddSensor(1, geom.Pt(5, 5))
	if got := m.CoverageFrac(1); got != 0.5 {
		t.Errorf("frac(1) = %v", got)
	}
	if got := m.CoverageFrac(2); got != 0 {
		t.Errorf("frac(2) = %v", got)
	}
	m.AddSensor(2, geom.Pt(5.1, 5))
	if got := m.CoverageFrac(2); got != 0.5 {
		t.Errorf("frac(2) = %v", got)
	}
	// Empty point set counts as fully covered.
	e := New(field, nil, 4, 1)
	if e.CoverageFrac(1) != 1 {
		t.Error("empty map frac should be 1")
	}
}

func TestUncoveredPoints(t *testing.T) {
	field := geom.Square(20)
	pts := []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 15}, {X: 16, Y: 15}}
	m := New(field, pts, 4, 1)
	m.AddSensor(1, geom.Pt(15.5, 15))
	got := m.UncoveredPoints()
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("UncoveredPoints = %v", got)
	}
}

func TestRedundantIdentification(t *testing.T) {
	field := geom.Square(20)
	pts := []geom.Point{{X: 5, Y: 5}}
	m := New(field, pts, 4, 2)
	m.AddSensor(1, geom.Pt(5, 5))
	m.AddSensor(2, geom.Pt(5.5, 5))
	m.AddSensor(3, geom.Pt(4.5, 5))
	// Point has count 3 >= k=2: exactly one sensor is removable.
	if !m.IsRedundant(1) {
		t.Error("sensor 1 should be redundant (count 3 > k)")
	}
	red := m.RedundantSensors()
	if len(red) != 1 {
		t.Errorf("RedundantSensors = %v, want exactly 1", red)
	}
	// Map must be restored.
	if m.NumSensors() != 3 || m.Count(0) != 3 {
		t.Error("map not restored after RedundantSensors")
	}
	// A sensor covering nothing is redundant by definition.
	m.AddSensor(9, geom.Pt(15, 15))
	if !m.IsRedundant(9) {
		t.Error("sensor covering no points should be redundant")
	}
}

func TestIsRedundantMissing(t *testing.T) {
	m := newTestMap(1)
	if m.IsRedundant(42) {
		t.Error("missing sensor cannot be redundant")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := newTestMap(2)
	m.AddSensor(1, geom.Pt(50, 50))
	c := m.Clone()
	if c.NumSensors() != 1 || c.Count(0) != m.Count(0) {
		t.Error("clone mismatch")
	}
	c.AddSensor(2, geom.Pt(50, 50))
	if m.NumSensors() != 1 {
		t.Error("clone mutation leaked into original")
	}
}

// Property: counts always equal the brute-force recomputation after a
// random add/remove workload.
func TestCountsMatchBruteForce(t *testing.T) {
	r := rng.New(11)
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(300, field)
	m := New(field, pts, 6, 2)
	alive := map[int]geom.Point{}
	nextID := 0
	for step := 0; step < 400; step++ {
		if len(alive) == 0 || r.Float64() < 0.6 {
			p := r.PointInRect(field)
			m.AddSensor(nextID, p)
			alive[nextID] = p
			nextID++
		} else {
			// Remove an arbitrary sensor.
			for id := range alive {
				m.RemoveSensor(id)
				delete(alive, id)
				break
			}
		}
	}
	deficient := 0
	for i := 0; i < m.NumPoints(); i++ {
		want := 0
		for _, p := range alive {
			if p.Dist2(m.Point(i)) <= 6*6 {
				want++
			}
		}
		if m.Count(i) != want {
			t.Fatalf("point %d: count %d, want %d", i, m.Count(i), want)
		}
		if want < 2 {
			deficient++
		}
	}
	if m.NumDeficient() != deficient {
		t.Errorf("NumDeficient = %d, want %d", m.NumDeficient(), deficient)
	}
}

func TestSensorQueries(t *testing.T) {
	m := newTestMap(1)
	m.AddSensor(5, geom.Pt(50, 50))
	m.AddSensor(3, geom.Pt(52, 50))
	m.AddSensor(9, geom.Pt(90, 90))
	ids := m.SensorIDs()
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 5 || ids[2] != 9 {
		t.Errorf("SensorIDs = %v", ids)
	}
	got := m.SensorsInBall(geom.Pt(51, 50), 3)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("SensorsInBall = %v", got)
	}
	if p, ok := m.SensorPos(5); !ok || !p.Eq(geom.Pt(50, 50)) {
		t.Errorf("SensorPos = %v %v", p, ok)
	}
	if _, ok := m.SensorPos(42); ok {
		t.Error("missing sensor reported present")
	}
}

func TestSetKRetunes(t *testing.T) {
	field := geom.Square(20)
	pts := []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 15}}
	m := New(field, pts, 4, 1)
	m.AddSensor(1, geom.Pt(5, 5))
	m.AddSensor(2, geom.Pt(15, 15))
	if !m.FullyCovered() {
		t.Fatal("setup: should be 1-covered")
	}
	// Raise the requirement: deficits appear.
	m.SetK(2)
	if m.K() != 2 || m.FullyCovered() || m.NumDeficient() != 2 {
		t.Errorf("after SetK(2): k=%d deficient=%d", m.K(), m.NumDeficient())
	}
	if m.Deficit(0) != 1 {
		t.Errorf("deficit = %d", m.Deficit(0))
	}
	// Cover the new requirement, then relax back down: surplus appears.
	m.AddSensor(3, geom.Pt(5.5, 5))
	m.AddSensor(4, geom.Pt(15.5, 15))
	if !m.FullyCovered() {
		t.Fatal("should be 2-covered now")
	}
	m.SetK(1)
	if !m.FullyCovered() {
		t.Error("relaxing k cannot create deficits")
	}
	if red := m.RedundantSensors(); len(red) != 2 {
		t.Errorf("redundant after relax = %v, want 2", red)
	}
	// No-op and validation.
	m.SetK(1)
	if m.K() != 1 {
		t.Error("no-op SetK changed k")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetK(0) should panic")
		}
	}()
	m.SetK(0)
}
