package core

import (
	"context"
	"math"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// Differential tests on fields that span several coverage tiles: the
// engines' tile shortcuts (the centralized per-tile argmax memo, the
// tile-summary base-station seed) must place byte-identically to the
// oracles when sensing disks, grid cells and the centralized 2·rs
// invalidation disks straddle tile borders. The centralized engine is
// checked against the full-scan incremental oracle here: the rescan
// oracle costs seconds per deployment at this size.

// multiTileMap builds a field of 12000–14000 Halton points at the
// paper's density (0.2 points per unit², rs = 4) — several default-size
// tiles — with initial random sensors (-1 = n/40).
func multiTileMap(t testing.TB, seed uint64, k, initial int) *coverage.Map {
	r := rng.New(seed)
	n := 12000 + r.Intn(2000)
	field := geom.Square(math.Sqrt(float64(n) / 0.2))
	m := coverage.New(field, lowdisc.Halton{}.Points(n, field), 4, k)
	if initial < 0 {
		initial = n / 40
	}
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	occupied := 0
	for tl := 0; tl < m.NumTiles(); tl++ {
		if len(m.TilePoints(tl)) > 0 {
			occupied++
		}
	}
	if occupied < 4 {
		t.Fatalf("field of %d points spans %d tiles, want >= 4", n, occupied)
	}
	return m
}

func TestTiledGridParity(t *testing.T) {
	for _, cell := range []float64{5, 10} {
		for k := 1; k <= 3; k++ {
			seed := uint64(k)
			ref := gridRescan(GridDECOR{CellSize: cell}, multiTileMap(t, seed, k, -1), Options{})
			got := GridDECOR{CellSize: cell}.Deploy(multiTileMap(t, seed, k, -1), rng.New(seed), Options{})
			assertSameResult(t, "multi-tile grid", ref, got)
		}
	}
}

func TestTiledGridParityNewRs(t *testing.T) {
	for _, newRs := range []float64{2, 6} {
		ref := gridRescan(GridDECOR{CellSize: 5, NewRs: newRs}, multiTileMap(t, 3, 2, -1), Options{})
		got := GridDECOR{CellSize: 5, NewRs: newRs}.Deploy(multiTileMap(t, 3, 2, -1), rng.New(3), Options{})
		assertSameResult(t, "multi-tile grid newRs", ref, got)
	}
}

// Placement caps cut a round's decided batch mid-apply; the cache and
// the cell deficit counts must only see the placements that landed.
func TestTiledGridParityWithCap(t *testing.T) {
	for _, capN := range []int{1, 17, 400} {
		ref := gridRescan(GridDECOR{CellSize: 5}, multiTileMap(t, 11, 3, -1), Options{MaxPlacements: capN})
		got := GridDECOR{CellSize: 5}.Deploy(multiTileMap(t, 11, 3, -1), rng.New(11), Options{MaxPlacements: capN})
		assertSameResult(t, "multi-tile grid cap", ref, got)
	}
}

// TestTiledMapSeedPathParity starts from sparse networks so the base
// station has to seed empty regions: the engines find the lowest
// deficient point through the tile summaries, the oracles through
// UncoveredPoints()[0].
func TestTiledMapSeedPathParity(t *testing.T) {
	for _, initial := range []int{0, 3} {
		ref := gridRescan(GridDECOR{CellSize: 10}, multiTileMap(t, 5, 1, initial), Options{})
		got := GridDECOR{CellSize: 10}.Deploy(multiTileMap(t, 5, 1, initial), rng.New(5), Options{})
		assertSameResult(t, "multi-tile grid seeding", ref, got)
		if initial == 0 && got.Seeded == 0 {
			t.Fatal("grid on an empty field seeded nothing")
		}
		refV := voronoiRescan(VoronoiDECOR{Rc: 8}, multiTileMap(t, 5, 1, initial), Options{})
		gotV := VoronoiDECOR{Rc: 8}.Deploy(multiTileMap(t, 5, 1, initial), rng.New(5), Options{})
		assertSameResult(t, "multi-tile voronoi seeding", refV, gotV)
		if initial == 0 && gotV.Seeded == 0 {
			t.Fatal("voronoi on an empty field seeded nothing")
		}
	}
}

func TestTiledCentralizedParity(t *testing.T) {
	for k := 1; k <= 3; k++ {
		seed := uint64(k)
		ref := centralizedIncremental(Centralized{}, multiTileMap(t, seed, k, -1), Options{})
		got := Centralized{}.Deploy(multiTileMap(t, seed, k, -1), rng.New(seed), Options{})
		assertSameResult(t, "multi-tile centralized", ref, got)
	}
	// Heterogeneous radius and cap variants.
	for _, newRs := range []float64{2, 6} {
		ref := centralizedIncremental(Centralized{NewRs: newRs}, multiTileMap(t, 4, 2, -1), Options{})
		got := Centralized{NewRs: newRs}.Deploy(multiTileMap(t, 4, 2, -1), rng.New(4), Options{})
		assertSameResult(t, "multi-tile centralized newRs", ref, got)
	}
	for _, capN := range []int{1, 5} {
		ref := centralizedIncremental(Centralized{}, multiTileMap(t, 4, 3, -1), Options{MaxPlacements: capN})
		got := Centralized{}.Deploy(multiTileMap(t, 4, 3, -1), rng.New(4), Options{MaxPlacements: capN})
		assertSameResult(t, "multi-tile centralized cap", ref, got)
	}
}

func TestTiledMapVoronoiParity(t *testing.T) {
	for _, rc := range []float64{8, 14.142135623730951} {
		ref := voronoiRescan(VoronoiDECOR{Rc: rc}, multiTileMap(t, 6, 2, -1), Options{})
		got := VoronoiDECOR{Rc: rc}.Deploy(multiTileMap(t, 6, 2, -1), rng.New(6), Options{})
		assertSameResult(t, "multi-tile voronoi", ref, got)
	}
}

// An already-expired context aborts every engine before any placement.
func TestTiledCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, meth := range []Method{GridDECOR{CellSize: 5}, Centralized{}, VoronoiDECOR{Rc: 8}} {
		res := meth.Deploy(multiTileMap(t, 1, 2, -1), rng.New(1), Options{Ctx: ctx})
		if !res.Interrupted || len(res.Placed) != 0 {
			t.Fatalf("%s: expected interrupted empty run, got interrupted=%v placed=%d",
				meth.Name(), res.Interrupted, len(res.Placed))
		}
	}
}

// FuzzTileBoundaryConflict drives the grid and centralized engines with
// fuzz-chosen fields, requirements, cell sizes and new-sensor radii on
// multi-tile fields; they must never diverge from the oracles.
func FuzzTileBoundaryConflict(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(2), uint8(1), uint8(3), uint8(200))
	f.Add(uint64(42), uint8(1), uint8(0), uint8(40), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, cellRaw, rsRaw, initRaw uint8) {
		k := 1 + int(kRaw)%3
		cell := 5.0
		if cellRaw%2 == 1 {
			cell = 10
		}
		newRs := []float64{0, 3, 5}[int(rsRaw)%3]
		initial := -1
		if initRaw%4 == 3 {
			initial = int(initRaw) % 16 // sparse: base-station seeds
		}
		g := GridDECOR{CellSize: cell, NewRs: newRs}
		ref := gridRescan(g, multiTileMap(t, seed, k, initial), Options{})
		got := g.Deploy(multiTileMap(t, seed, k, initial), rng.New(seed), Options{})
		assertSameResult(t, "fuzz multi-tile grid", ref, got)

		c := Centralized{NewRs: newRs}
		refC := centralizedIncremental(c, multiTileMap(t, seed, k, initial), Options{})
		gotC := c.Deploy(multiTileMap(t, seed, k, initial), rng.New(seed), Options{})
		assertSameResult(t, "fuzz multi-tile centralized", refC, gotC)
	})
}
