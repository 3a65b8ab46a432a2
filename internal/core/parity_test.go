package core

import (
	"reflect"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/partition"
	"decor/internal/rng"
)

// Differential tests: the incremental benefit cache must be a pure
// optimization. For every scheme, seed, and k the cached deployment has to
// produce byte-identical results to the rescan oracle (oracle_test.go).

// parityMap builds a deterministic scenario: Halton sample points on a
// square field, random initial sensors.
func parityMap(seed uint64, k int) *coverage.Map {
	r := rng.New(seed)
	side := 35 + r.Float64()*15
	field := geom.Square(side)
	pts := lowdisc.Halton{}.Points(250+r.Intn(200), field)
	m := coverage.New(field, pts, 4, k)
	initial := 5 + r.Intn(40)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

// assertSameResult compares every deterministic field of two Results.
func assertSameResult(t *testing.T, label string, ref, got Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.Placed, got.Placed) {
		n := len(ref.Placed)
		if len(got.Placed) < n {
			n = len(got.Placed)
		}
		for i := 0; i < n; i++ {
			if ref.Placed[i] != got.Placed[i] {
				t.Fatalf("%s: placement %d diverges: rescan %+v, cached %+v",
					label, i, ref.Placed[i], got.Placed[i])
			}
		}
		t.Fatalf("%s: placement count diverges: rescan %d, cached %d",
			label, len(ref.Placed), len(got.Placed))
	}
	if ref.Rounds != got.Rounds || ref.Seeded != got.Seeded || ref.Capped != got.Capped {
		t.Fatalf("%s: rounds/seeded/capped diverge: rescan %d/%d/%v, cached %d/%d/%v",
			label, ref.Rounds, ref.Seeded, ref.Capped, got.Rounds, got.Seeded, got.Capped)
	}
	if ref.Messages != got.Messages || !reflect.DeepEqual(ref.NodeMessages, got.NodeMessages) {
		t.Fatalf("%s: message accounting diverges: rescan %d, cached %d",
			label, ref.Messages, got.Messages)
	}
}

func TestGridCacheParity(t *testing.T) {
	for _, cell := range []float64{5, 10} {
		for _, seq := range []bool{false, true} {
			for k := 1; k <= 5; k++ {
				for seed := uint64(1); seed <= 4; seed++ {
					mRef := parityMap(seed, k)
					mCached := parityMap(seed, k)
					ref := gridRescan(GridDECOR{CellSize: cell, Sequential: seq}, mRef, Options{})
					got := GridDECOR{CellSize: cell, Sequential: seq}.
						Deploy(mCached, rng.New(seed), Options{})
					label := "grid cell=" + ref.Method
					assertSameResult(t, label, ref, got)
				}
			}
		}
	}
}

func TestVoronoiCacheParity(t *testing.T) {
	for _, rc := range []float64{8, 14.142135623730951} {
		for _, seq := range []bool{false, true} {
			for k := 1; k <= 5; k++ {
				for seed := uint64(1); seed <= 4; seed++ {
					mRef := parityMap(seed, k)
					mCached := parityMap(seed, k)
					ref := voronoiRescan(VoronoiDECOR{Rc: rc, Sequential: seq}, mRef, Options{})
					got := VoronoiDECOR{Rc: rc, Sequential: seq}.
						Deploy(mCached, rng.New(seed), Options{})
					label := "voronoi " + ref.Method
					assertSameResult(t, label, ref, got)
				}
			}
		}
	}
}

// Heterogeneous new-sensor radius exercises the cache at rs != map default,
// including the Voronoi fast-path band at rc − rs.
func TestCacheParityHeterogeneousRs(t *testing.T) {
	for _, newRs := range []float64{2, 3, 6} {
		for seed := uint64(1); seed <= 3; seed++ {
			mRef := parityMap(seed, 2)
			mCached := parityMap(seed, 2)
			ref := gridRescan(GridDECOR{CellSize: 5, NewRs: newRs}, mRef, Options{})
			got := GridDECOR{CellSize: 5, NewRs: newRs}.
				Deploy(mCached, rng.New(seed), Options{})
			assertSameResult(t, "grid newRs", ref, got)

			mRef = parityMap(seed, 2)
			mCached = parityMap(seed, 2)
			refV := voronoiRescan(VoronoiDECOR{Rc: 8, NewRs: newRs}, mRef, Options{})
			gotV := VoronoiDECOR{Rc: 8, NewRs: newRs}.
				Deploy(mCached, rng.New(seed), Options{})
			assertSameResult(t, "voronoi newRs", refV, gotV)
		}
	}
}

// Placement caps interact with the cache's applied-vs-decided distinction:
// decisions cut off by the cap must not leak into the snapshot.
func TestCacheParityWithCap(t *testing.T) {
	for _, capN := range []int{1, 3, 17} {
		mRef := parityMap(11, 3)
		mCached := parityMap(11, 3)
		ref := gridRescan(GridDECOR{CellSize: 5}, mRef, Options{MaxPlacements: capN})
		got := GridDECOR{CellSize: 5}.
			Deploy(mCached, rng.New(11), Options{MaxPlacements: capN})
		assertSameResult(t, "grid cap", ref, got)

		mRef = parityMap(11, 3)
		mCached = parityMap(11, 3)
		refV := voronoiRescan(VoronoiDECOR{Rc: 8}, mRef, Options{MaxPlacements: capN})
		gotV := VoronoiDECOR{Rc: 8}.
			Deploy(mCached, rng.New(11), Options{MaxPlacements: capN})
		assertSameResult(t, "voronoi cap", refV, gotV)
	}
}

// benchDeployMap builds the benchmark scenario: the paper's 100×100
// field, 2500 Halton points, partially covered by initial sensors.
func benchDeployMap(k, initial int) *coverage.Map {
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(2500, field)
	m := coverage.New(field, pts, 4, k)
	r := rng.New(424242)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

// BenchmarkBenefitRadius measures one round's worth of benefit
// evaluations — every leader/node picking its best deficient candidate on
// a partially covered field — through the two evaluation paths: the
// seed's snapshot rescan (bestCandidateRadius per candidate) vs the
// incremental cache (DESIGN.md §8). The cached paths read precomputed
// state and allocate nothing.
func BenchmarkBenefitRadius(b *testing.B) {
	m := benchDeployMap(2, 120)
	rs := m.Rs()
	sink := 0

	// Grid bookkeeping: cell candidate lists and the point->cell map.
	part := partition.NewGrid(m.Field(), 5)
	pts := make([]geom.Point, m.NumPoints())
	for i := range pts {
		pts[i] = m.Point(i)
	}
	cells := part.AssignPoints(pts)
	cellOf := make([]int, len(pts))
	for c, idxs := range cells {
		for _, i := range idxs {
			cellOf[i] = c
		}
	}

	// Voronoi bookkeeping: ownership for the initial sensors, eager for
	// the rescan, deficit-only for the cache.
	vor := newVoronoiPartition(m.Field(), pts, 8)
	ids := m.SensorIDs()
	pos := make(map[int]geom.Point, len(ids))
	for _, id := range ids {
		p, _ := m.SensorPos(id)
		vor.AddSensor(id, p)
		pos[id] = p
	}
	vcells := newVoronoiCells(m, 8)

	b.Run("grid-rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := m.CountsInto(nil)
			for c := range cells {
				perceive := func(i int) int {
					if cellOf[i] != c {
						return -1
					}
					return snap[i]
				}
				if idx, _, ok := bestCandidateRadius(m, rs, cells[c], perceive); ok {
					sink += idx
				}
			}
		}
	})
	b.Run("grid-cached", func(b *testing.B) {
		cache := newBenefitCache(m, rs, cellOf, len(cells))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := range cells {
				if idx, ok := cache.bestInCell(c, cells[c]); ok {
					sink += idx
				}
			}
		}
	})
	b.Run("voronoi-rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := m.CountsInto(nil)
			for _, id := range ids {
				owned := vor.OwnedPoints(id)
				if len(owned) == 0 {
					continue
				}
				nodePos := pos[id]
				perceive := func(i int) int {
					if nodePos.Dist2(m.Point(i)) > 64 {
						return -1
					}
					return snap[i]
				}
				if idx, _, ok := bestCandidateRadius(m, rs, owned, perceive); ok {
					sink += idx
				}
			}
		}
	})
	b.Run("voronoi-cached", func(b *testing.B) {
		cache := newBenefitCache(m, rs, nil, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for n := 0; n < vcells.NumNodes(); n++ {
				_, pos := vcells.Node(n)
				if idx, ok := cache.bestOwned(pos, 8, vcells, n); ok {
					sink += idx
				}
			}
		}
	})
	_ = sink
}

// BenchmarkDeployAblation runs full distributed deployments through the
// rescan oracles and the production engines — the end-to-end view of
// what the cache buys, including its build cost.
func BenchmarkDeployAblation(b *testing.B) {
	for _, bc := range []struct {
		name   string
		deploy func(m *coverage.Map) Result
	}{
		{"grid-rescan", func(m *coverage.Map) Result { return gridRescan(GridDECOR{CellSize: 5}, m, Options{}) }},
		{"grid-cached", func(m *coverage.Map) Result { return GridDECOR{CellSize: 5}.Deploy(m, rng.New(7), Options{}) }},
		{"voronoi-rescan", func(m *coverage.Map) Result { return voronoiRescan(VoronoiDECOR{Rc: 8}, m, Options{}) }},
		{"voronoi-cached", func(m *coverage.Map) Result { return VoronoiDECOR{Rc: 8}.Deploy(m, rng.New(7), Options{}) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := benchDeployMap(2, 30)
				b.StartTimer()
				bc.deploy(m)
			}
		})
	}
}
