package core

import (
	"fmt"
	"math"

	"decor/internal/coverage"
	"decor/internal/obs"
	"decor/internal/rng"
)

// Centralized is the paper's first baseline: the same greedy benefit
// heuristic as DECOR but executed with a global view of the field. It is
// the quality ceiling — "expected to result in a more efficient placement
// than DECOR. However, having global knowledge of the field is not
// possible in many cases" (§4).
type Centralized struct {
	// NewRs overrides the sensing radius of the sensors this run
	// deploys (0 = the map's default), supporting the paper's
	// heterogeneous setting where new hardware may out-range the
	// original deployment.
	NewRs float64
}

// Name implements Method.
func (Centralized) Name() string { return "centralized" }

// Deploy implements Method.
func (c Centralized) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	res := Result{Method: c.Name(), NodeMessages: map[int]int{}, Cells: 1, Rounds: 1}
	depSpan := obs.Start(opt.Ctx, "core.deploy", nil)
	rs := c.NewRs
	if rs <= 0 {
		rs = m.Rs()
	}
	place(m, rs, opt, &res)
	if depSpan.TraceID() != 0 {
		depSpan.SetAttr(fmt.Sprintf("method=%s placed=%d", res.Method, len(res.Placed)))
		depSpan.End()
	}
	return res
}

// tileArgmax memoizes one coverage tile's best deficient candidate.
type tileArgmax struct {
	idx, val int32 // idx -1: no deficient candidate
	valid    bool
}

// coveredBenefit replaces the benefit of a k-covered candidate: far below
// any deficient candidate's (which is at least 1), so the argmax reads
// one array, and far enough above the int32 floor that the decrements
// the point still receives cannot wrap it.
const coveredBenefit = math.MinInt32 / 2

// place is the centralized greedy: repeatedly deploy a sensor of radius
// rs at the deficient sample point with maximum benefit (Eq. 1), lowest
// index on ties. Benefits are maintained incrementally over the rs
// adjacency, so one placement costs O(points-in-disk²) updates
// (DESIGN.md §5). The global argmax keeps a per-tile memo: fully
// k-covered tiles are skipped in O(1) through the map's tile summaries,
// and only tiles within 2·rs of a placement — the reach of its benefit
// updates — are rescanned. Only deficient candidates carry a real
// benefit; covered ones hold coveredBenefit.
func place(m *coverage.Map, rs float64, opt Options, res *Result) {
	nb := m.PointNeighborhoods(rs)
	k := m.K()
	span := obs.Start(nil, "", obsCacheBuildSeconds)
	benefit := make([]int32, m.NumPoints())
	for t := 0; t < m.NumTiles(); t++ {
		if m.DeficientInTile(t) == 0 {
			continue // all candidates covered: their benefit is never read
		}
		for _, i := range m.TilePoints(t) {
			if m.Count(int(i)) >= k {
				benefit[i] = coveredBenefit
				continue
			}
			for _, j := range nb.At(int(i)) {
				benefit[i] += int32(m.Deficit(int(j)))
			}
		}
	}
	span.End()

	memo := make([]tileArgmax, m.NumTiles())
	id := nextSensorID(m)
	for !m.FullyCovered() {
		if len(res.Placed) >= opt.maxPlacements() {
			res.Capped = true
			return
		}
		if opt.interrupted() {
			res.Interrupted = true
			return
		}
		scoreSpan := obs.Start(nil, "", obsScoringSeconds)
		bestIdx, bestV := -1, int32(0)
		for t := range memo {
			if m.DeficientInTile(t) == 0 {
				continue // O(1) skip; counts never shrink mid-run
			}
			e := &memo[t]
			if !e.valid {
				*e = tileArgmax{idx: -1, valid: true}
				for _, i := range m.TilePoints(t) {
					if benefit[i] > e.val {
						e.idx, e.val = i, benefit[i]
					}
				}
			}
			// Lexicographic (benefit, -index) max across tiles restores
			// the global scan's lowest-index tie-break: tile order is
			// spatial, not index order.
			if e.idx >= 0 && (e.val > bestV || e.val == bestV && int(e.idx) < bestIdx) {
				bestIdx, bestV = int(e.idx), e.val
			}
		}
		scoreSpan.End()
		if bestIdx < 0 {
			return // unreachable: a deficient point always benefits itself
		}
		// Every candidate whose ball holds a point this placement covers
		// short of k loses one benefit; points it lifts to k drop out.
		for _, j := range nb.At(bestIdx) {
			c := m.Count(int(j))
			if c >= k {
				continue
			}
			for _, i := range nb.At(int(j)) {
				benefit[i]--
			}
			if c == k-1 {
				benefit[j] = coveredBenefit
			}
		}
		p := m.Point(bestIdx)
		if rs == m.Rs() {
			m.AddSensorAtPoint(id, bestIdx)
		} else {
			m.AddSensorRadius(id, p, rs)
		}
		m.VisitTilesInDisk(p, 2*rs, func(t int) { memo[t].valid = false })
		res.Placed = append(res.Placed, Placement{ID: id, Pos: p})
		id++
	}
}

// RandomPlacement is the paper's second baseline: uniform random
// positions until k-coverage is achieved. It needs roughly 4× the nodes
// of any informed method and thousands of redundant sensors (Figs. 8–9).
type RandomPlacement struct{}

// Name implements Method.
func (RandomPlacement) Name() string { return "random" }

// Deploy implements Method.
func (rp RandomPlacement) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	res := Result{Method: rp.Name(), NodeMessages: map[int]int{}, Cells: 1, Rounds: 1}
	depSpan := obs.Start(opt.Ctx, "core.deploy", nil)
	defer func() {
		if depSpan.TraceID() != 0 {
			depSpan.SetAttr(fmt.Sprintf("method=%s placed=%d", res.Method, len(res.Placed)))
			depSpan.End()
		}
	}()
	id := nextSensorID(m)
	for !m.FullyCovered() {
		if len(res.Placed) >= opt.maxPlacements() {
			res.Capped = true
			return res
		}
		if opt.interrupted() {
			res.Interrupted = true
			return res
		}
		p := r.PointInRect(m.Field())
		m.AddSensor(id, p)
		res.Placed = append(res.Placed, Placement{ID: id, Pos: p})
		id++
	}
	return res
}
