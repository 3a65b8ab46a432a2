package protocol

import (
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/network"
	"decor/internal/rng"
	"decor/internal/sim"
)

func benchMap(b *testing.B, k, initial int) *coverage.Map {
	b.Helper()
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(2000, field)
	m := coverage.New(field, pts, 4, k)
	r := rng.New(1)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

// BenchmarkEventDrivenGrid measures a full event-driven grid deployment
// at paper scale.
func BenchmarkEventDrivenGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMap(b, 3, 200)
		w := NewWorld(m, 5, sim.NewEngine(0.05), 1)
		b.StartTimer()
		RunDeployment(w)
	}
}

// BenchmarkEventDrivenVoronoi measures the Voronoi counterpart.
func BenchmarkEventDrivenVoronoi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMap(b, 3, 200)
		w := NewVoronoiWorld(m, 8, sim.NewEngine(0.05), 1)
		b.StartTimer()
		RunVoronoiDeployment(w)
	}
}

// BenchmarkHeartbeatSteadyState measures the per-virtual-second cost of
// a 200-node heartbeat mesh.
func BenchmarkHeartbeatSteadyState(b *testing.B) {
	m := benchMap(b, 1, 200)
	eng := sim.NewEngine(0.01)
	// Build protocol nodes over the sensors.
	netw := newBenchNetwork(m)
	cfg := Config{Tc: 1, TimeoutMult: 3, Cell: -1}
	for _, id := range m.SensorIDs() {
		eng.Register(id, NewNode(id, netw, cfg))
	}
	eng.Run(5) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + 1)
	}
}

func newBenchNetwork(m *coverage.Map) *network.Network {
	n := network.New()
	for _, id := range m.SensorIDs() {
		p, _ := m.SensorPos(id)
		n.Add(id, p, 4, 8)
	}
	return n
}
