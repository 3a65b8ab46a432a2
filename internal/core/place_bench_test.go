package core

import (
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/index"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// Large-field placement benchmarks (ROADMAP item 4): fields of 10^5 and
// 10^6 sample points at a fixed density of 0.2 pts/unit², rs = 4
// (~10 points per sensing disk), k = 1, with n/40 random initial
// sensors. The 10^6 size is gated behind DECOR_PLACE_LARGE=1 so the
// `make check` bench smoke (-benchtime=1x over everything) stays fast;
// `make bench-json` sets it when refreshing BENCH_core.json.

// placeScenario caches the expensive immutable pieces of one field size
// — points, the prototype map and its neighborhood build — so benchmark
// iterations only pay for Clone + Deploy.
type placeScenario struct {
	n     int
	field geom.Rect
	pts   []geom.Point
	nb    index.NeighborhoodCache
	m     *coverage.Map
}

var (
	placeMu        sync.Mutex
	placeScenarios = map[int]*placeScenario{}
)

// placeDensity is points per unit²; side = sqrt(n / placeDensity).
const placeDensity = 0.2

func getPlaceScenario(n int) *placeScenario {
	placeMu.Lock()
	defer placeMu.Unlock()
	if s, ok := placeScenarios[n]; ok {
		return s
	}
	s := &placeScenario{n: n}
	s.field = geom.Square(math.Sqrt(float64(n) / placeDensity))
	s.pts = lowdisc.Halton{}.Points(n, s.field)
	placeScenarios[n] = s
	return s
}

// proto returns the scenario's cached prototype map with its initial
// sensors, built once per size.
func (s *placeScenario) proto() *coverage.Map {
	placeMu.Lock()
	defer placeMu.Unlock()
	if s.m != nil {
		return s.m
	}
	m := coverage.New(s.field, s.pts, 4, 1)
	m.ShareNeighborhoods(&s.nb)
	r := rng.New(99)
	for id := 0; id < s.n/40; id++ {
		m.AddSensor(id, r.PointInRect(s.field))
	}
	// Force the rs=4 point adjacency now: it is lazily built on first use
	// and shared with every clone, so without this the first benchmarked Deploy
	// would pay for it alone.
	m.PointNeighborhoods(4)
	s.m = m
	return m
}

// BenchmarkPlace deploys each method's production engine to full
// 1-coverage on large fields: grid-small DECOR (benefit cache) and the
// centralized greedy (per-tile argmax memo).
func BenchmarkPlace(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		name := map[int]string{100_000: "pts=1e5", 1_000_000: "pts=1e6"}[n]
		b.Run(name, func(b *testing.B) {
			if n >= 1_000_000 && os.Getenv("DECOR_PLACE_LARGE") == "" {
				b.Skip("set DECOR_PLACE_LARGE=1 to run the 1e6-point benchmarks")
			}
			s := getPlaceScenario(n)
			for _, v := range []struct {
				name string
				meth Method
			}{
				{"grid", GridDECOR{CellSize: 5}},
				{"centralized", Centralized{}},
			} {
				b.Run(v.name, func(b *testing.B) {
					benchDeployClone(b, s.proto(), v.meth)
				})
			}
		})
	}
}

// benchDeployClone deploys meth on fresh clones of proto.
func benchDeployClone(b *testing.B, proto *coverage.Map, meth Method) {
	b.ReportAllocs()
	// proto was built lazily in the caller's argument expression; without
	// the GC + reset the first variant of each size would absorb the whole
	// one-time scenario setup (point generation, CSR build, initial
	// sensors) and the collection debt it leaves behind.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := proto.Clone()
		b.StartTimer()
		res := meth.Deploy(m, rng.New(7), Options{})
		b.StopTimer()
		if !m.FullyCovered() {
			b.Fatalf("deploy left %d deficient points", m.NumDeficient())
		}
		if res.Interrupted || res.Capped {
			b.Fatalf("unexpected interrupted/capped run")
		}
		b.StartTimer()
	}
}
