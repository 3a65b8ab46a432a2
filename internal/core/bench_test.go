package core

import (
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

func paperMap(b *testing.B, k int) *coverage.Map {
	b.Helper()
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(2000, field)
	m := coverage.New(field, pts, 4, k)
	r := rng.New(1)
	for id := 0; id < 200; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

// Per-method deployment benchmarks at full paper scale (k=3).
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
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := paperMap(b, 3)
				b.StartTimer()
				meth.Deploy(m, rng.New(7), Options{})
			}
		})
	}
}

// BenchmarkRestore measures the paper's headline operation: repairing an
// area failure (Fig. 14 workload).
func BenchmarkRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := paperMap(b, 3)
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
				m := paperMap(b, 3)
				b.StartTimer()
				placed = v.deploy(m).NumPlaced()
			}
			b.ReportMetric(float64(placed), "placed")
		})
	}
}
