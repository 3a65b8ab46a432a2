package tour

import (
	"math"
	"testing"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

func TestTourLength(t *testing.T) {
	tr := Tour{Start: geom.Pt(0, 0), Stops: []geom.Point{{X: 3, Y: 4}, {X: 3, Y: 8}}}
	if got := tr.Length(); math.Abs(got-9) > 1e-12 {
		t.Errorf("Length = %v, want 9", got)
	}
	if got := (Tour{Start: geom.Pt(1, 1)}).Length(); got != 0 {
		t.Errorf("empty tour length = %v", got)
	}
}

func TestPlanVisitsEverySiteOnce(t *testing.T) {
	r := rng.New(3)
	field := geom.Square(50)
	sites := make([]geom.Point, 60)
	for i := range sites {
		sites[i] = r.PointInRect(field)
	}
	tr := Plan(geom.Pt(0, 0), sites, 0)
	if len(tr.Stops) != len(sites) {
		t.Fatalf("stops = %d, want %d", len(tr.Stops), len(sites))
	}
	seen := map[geom.Point]int{}
	for _, p := range sites {
		seen[p]++
	}
	for _, p := range tr.Stops {
		seen[p]--
	}
	for p, c := range seen {
		if c != 0 {
			t.Fatalf("site %v count %d after tour", p, c)
		}
	}
}

func TestPlanBeatsArbitraryOrder(t *testing.T) {
	r := rng.New(5)
	field := geom.Square(100)
	sites := make([]geom.Point, 80)
	for i := range sites {
		sites[i] = r.PointInRect(field)
	}
	planned := Plan(geom.Pt(0, 0), sites, 0).Length()
	arbitrary := Tour{Start: geom.Pt(0, 0), Stops: sites}.Length()
	if planned >= arbitrary {
		t.Errorf("planned %v not below arbitrary %v", planned, arbitrary)
	}
	// Also beats pure nearest-neighbor (2-opt must help on 80 points).
	nn := Tour{Start: geom.Pt(0, 0), Stops: nearestNeighborOrder(geom.Pt(0, 0), sites)}.Length()
	if planned > nn+1e-9 {
		t.Errorf("2-opt made the tour longer: %v vs %v", planned, nn)
	}
}

func TestPlanNearOptimalOnSmallInstances(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(5) // 4..8 sites
		sites := make([]geom.Point, n)
		for i := range sites {
			sites[i] = r.PointInRect(geom.Square(20))
		}
		start := geom.Pt(0, 0)
		opt := exhaustive(start, sites).Length()
		got := Plan(start, sites, 0).Length()
		if got < opt-1e-9 {
			t.Fatalf("trial %d: heuristic %v beat optimal %v?!", trial, got, opt)
		}
		if got > 1.25*opt+1e-9 {
			t.Errorf("trial %d: heuristic %v far above optimal %v", trial, got, opt)
		}
	}
}

func TestExhaustiveDegenerateAndPanic(t *testing.T) {
	if got := exhaustive(geom.Pt(0, 0), nil).Length(); got != 0 {
		t.Errorf("empty exhaustive = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized exhaustive should panic")
		}
	}()
	exhaustive(geom.Pt(0, 0), make([]geom.Point, 10))
}

// The actuation-cost comparison the package exists for: a DECOR
// restoration of a compact disaster area yields a much shorter robot
// tour than scattering the same sensors randomly.
func TestRestorationTourCompactness(t *testing.T) {
	field := geom.Square(60)
	pts := lowdisc.Halton{}.Points(700, field)
	k := 2
	base := coverage.New(field, pts, 4, k)
	(core.Centralized{}).Deploy(base, rng.New(1), core.Options{})
	// Disaster in a disc; restore with DECOR.
	disk := geom.DiskAt(30, 30, 14)
	for _, id := range base.SensorsInBall(disk.Center, disk.R) {
		base.RemoveSensor(id)
	}
	res := (core.VoronoiDECOR{Rc: 8}).Deploy(base, rng.New(2), core.Options{})
	var decorSites []geom.Point
	for _, pl := range res.Placed {
		decorSites = append(decorSites, pl.Pos)
	}
	// Same number of sensors at random field positions.
	r := rng.New(3)
	randomSites := make([]geom.Point, len(decorSites))
	for i := range randomSites {
		randomSites[i] = r.PointInRect(field)
	}
	start := geom.Pt(0, 0)
	decorTour := Plan(start, decorSites, 0).Length()
	randomTour := Plan(start, randomSites, 0).Length()
	if decorTour >= randomTour {
		t.Errorf("compact restoration tour %v not shorter than scattered %v",
			decorTour, randomTour)
	}
}

// exhaustive returns the optimal open tour by brute force — O(n!) —
// the oracle the heuristic is cross-validated against (n <= 9).
func exhaustive(start geom.Point, sites []geom.Point) Tour {
	n := len(sites)
	if n == 0 {
		return Tour{Start: start}
	}
	if n > 9 {
		panic("tour: exhaustive limited to 9 sites")
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var bestOrder []int
	var recurse func(k int, cur geom.Point, acc float64)
	recurse = func(k int, cur geom.Point, acc float64) {
		if acc >= best {
			return
		}
		if k == n {
			best = acc
			bestOrder = append(bestOrder[:0], perm...)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			p := sites[perm[k]]
			recurse(k+1, p, acc+cur.Dist(p))
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0, start, 0)
	stops := make([]geom.Point, n)
	for i, idx := range bestOrder {
		stops[i] = sites[idx]
	}
	return Tour{Start: start, Stops: stops}
}
