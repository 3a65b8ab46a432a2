package core

import (
	"sync"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// paperSet is the paper's §4 field (2000 Halton points, side 100,
// rs 4), built once per process like the shared set a plan-cold
// request reads from the registry.
var paperSet = sync.OnceValue(func() *coverage.PointSet {
	field := geom.Square(100)
	return coverage.NewPointSet(field, lowdisc.Halton{}.Points(2000, field), 4)
})

// paperMap returns a fresh map over paperSet with 200 scattered sensors.
func paperMap(k int) *coverage.Map {
	m := coverage.NewMap(paperSet(), k)
	r := rng.New(1)
	for id := 0; id < 200; id++ {
		m.AddSensor(id, r.PointInRect(m.Field()))
	}
	return m
}

// BenchmarkDeploy plans each method from scratch at full paper scale
// (k=3) in plan-cold's shape: every iteration scatters 200 sensors over
// a fresh map on the shared point set and deploys. One untimed deploy
// first builds the adjacencies the method reads, so a sample never pays
// for them.
func BenchmarkDeploy(b *testing.B) {
	for _, meth := range []Method{
		Centralized{},
		RandomPlacement{},
		GridDECOR{CellSize: 5},
		GridDECOR{CellSize: 10},
		VoronoiDECOR{Rc: 8},
		VoronoiDECOR{Rc: 14.142135623730951},
	} {
		b.Run(meth.Name(), func(b *testing.B) {
			meth.Deploy(paperMap(3), rng.New(7), Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				meth.Deploy(paperMap(3), rng.New(7), Options{})
			}
		})
	}
}

// BenchmarkRestore measures the paper's headline operation: repairing an
// area failure (Fig. 14 workload).
func BenchmarkRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := paperMap(3)
		(Centralized{}).Deploy(m, rng.New(7), Options{})
		disk := geom.DiskAt(50, 50, 24)
		for _, id := range m.SensorsInBall(disk.Center, disk.R) {
			m.RemoveSensor(id)
		}
		b.StartTimer()
		(VoronoiDECOR{Rc: 8}).Deploy(m, rng.New(8), Options{})
	}
}

// BenchmarkAblationFullRescan is the incremental-benefit ablation
// (DESIGN.md §5): the centralized greedy through the rescan oracle,
// which recomputes every candidate's benefit at every step, against the
// production engine on the same paper-scale field. Same placements,
// more work.
func BenchmarkAblationFullRescan(b *testing.B) {
	for _, v := range []struct {
		name   string
		deploy func(m *coverage.Map) Result
	}{
		{"rescan", func(m *coverage.Map) Result { return centralizedRescan(Centralized{}, m, Options{}) }},
		{"engine", func(m *coverage.Map) Result { return Centralized{}.Deploy(m, rng.New(7), Options{}) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			var placed int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := paperMap(3)
				b.StartTimer()
				placed = v.deploy(m).NumPlaced()
			}
			b.ReportMetric(float64(placed), "placed")
		})
	}
}
