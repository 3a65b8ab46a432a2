package core

import (
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/index"
	"decor/internal/obs"
	"decor/internal/partition"
)

// Cached instrument handles so the placement hot path never touches the
// registry's name map.
var (
	obsCacheDeltas    = obs.Default().Counter(obs.CoreCacheDeltaUpdates)
	obsCacheFallbacks = obs.Default().Counter(obs.CoreCacheFallbacks)

	obsRoundSeconds      = obs.Default().Histogram(obs.CoreRoundSeconds)
	obsEvalSeconds       = obs.Default().Histogram(obs.CoreBenefitEvalSeconds)
	obsScoringSeconds    = obs.Default().Histogram(obs.CoreCandidateScoringSeconds)
	obsCacheBuildSeconds = obs.Default().Histogram(obs.CoreCacheBuildSeconds)
)

// benefitCache maintains, for every sample point, the benefit (Eq. 1) a
// new sensor of radius rs placed there would have against the map's
// current coverage counts (DESIGN.md §8).
//
// Invariant, restored after every applyPlacement + map update pair:
//
//	benefit[i] = Σ_{j ∈ ball(i, rs), visible(i, j)} max(k − count[j], 0)
//
// The distributed rounds decide against round-start state, which is the
// map itself: a round's placements reach the map (and the cache) only
// after every node has decided. visible() encodes the scheme's
// knowledge model:
//
//   - Grid (cellOf != nil): a leader only knows points of the cell under
//     evaluation, and every candidate is evaluated against its own cell —
//     so visibility is cellOf[i] == cellOf[j], a property of the candidate
//     alone, and the cached value is exact.
//   - Voronoi (cellOf == nil): a node knows all points within rc of
//     itself, so visibility depends on the evaluating node. The cache
//     stores the unrestricted benefit, which equals the perceived benefit
//     whenever the candidate's whole ball lies inside the node's
//     knowledge disk (d(candidate, node) ≤ rc − rs); the rare boundary
//     candidates fall back to an exact restricted evaluation.
//
// One placement's delta touches O(ball²) cached entries via the
// precomputed point neighborhoods instead of rescanning every candidate's
// ball each round, and allocates nothing.
type benefitCache struct {
	m       *coverage.Map
	rs      float64
	k       int
	nb      *index.Neighborhoods
	benefit []int32
	cellOf  []int   // nil for the Voronoi (unrestricted) cache
	cellDef []int32 // grid only: per cell, points with count < k
	deltas  int64   // benefit entries touched; flushed to obs at Deploy end
}

// newBenefitCache builds the cache for new-sensor radius rs. cellOf maps
// each sample point to one of cells grid cells for the cell-restricted
// variant, or is nil for the unrestricted one.
func newBenefitCache(m *coverage.Map, rs float64, cellOf []int, cells int) *benefitCache {
	span := obs.Start(nil, "", obsCacheBuildSeconds)
	defer span.End()
	n := m.NumPoints()
	c := &benefitCache{
		m:       m,
		rs:      rs,
		k:       m.K(),
		nb:      m.PointNeighborhoods(rs),
		benefit: make([]int32, n),
		cellOf:  cellOf,
	}
	if cellOf != nil {
		c.cellDef = make([]int32, cells)
	}
	for j := 0; j < n; j++ {
		d := int32(m.Deficit(j))
		if d == 0 {
			continue
		}
		if cellOf == nil {
			for _, i := range c.nb.At(j) {
				c.benefit[i] += d
			}
			continue
		}
		cj := cellOf[j]
		c.cellDef[cj]++
		for _, i := range c.nb.At(j) {
			if cellOf[i] == cj {
				c.benefit[i] += d
			}
		}
	}
	return c
}

// applyPlacement folds one new sensor of radius rs placed at sample
// point ptIdx into the cached benefits. Call it once per placement, just
// before the map update, in any order within a round — the resulting
// state equals a rebuild against the post-round counts.
func (c *benefitCache) applyPlacement(ptIdx int) {
	for _, jj := range c.nb.At(ptIdx) {
		j := int(jj)
		kp := c.m.Count(j)
		if kp >= c.k {
			continue
		}
		// The point's deficit shrinks by one, so every candidate whose
		// (visible) ball contains it loses one benefit.
		if c.cellOf == nil {
			for _, i := range c.nb.At(j) {
				c.benefit[i]--
			}
			c.deltas += int64(len(c.nb.At(j)))
			continue
		}
		cj := c.cellOf[j]
		if kp == c.k-1 {
			c.cellDef[cj]--
		}
		for _, i := range c.nb.At(j) {
			if c.cellOf[i] == cj {
				c.benefit[i]--
				c.deltas++
			}
		}
	}
}

// flush publishes the accumulated delta count to the default registry.
// Called once per Deploy so the hot loop stays atomic-free.
func (c *benefitCache) flush() {
	if c.deltas > 0 {
		obsCacheDeltas.Add(c.deltas)
		c.deltas = 0
	}
}

// bestInCell returns the grid cell's deficient candidate with maximum cached
// benefit, ties broken by lowest point index. candidates are the cell's
// points, ascending. A cell without deficient points is skipped in O(1);
// any other has a positive-benefit candidate, because a deficient
// point's ball holds its own deficit.
func (c *benefitCache) bestInCell(cell int, candidates []int) (idx int, ok bool) {
	if c.cellDef[cell] == 0 {
		return 0, false
	}
	bestV, bestIdx := int32(0), -1
	for _, i := range candidates {
		if c.m.Count(i) >= c.k {
			continue
		}
		if b := c.benefit[i]; b > bestV {
			bestV, bestIdx = b, i
		}
	}
	return bestIdx, bestIdx >= 0
}

// bestOwned returns the deficient point with maximum perceived benefit
// among the tracked points node n owns in cells (the node sits at
// nodePos with communication radius rc), ties broken by lowest point
// index — so the list order does not matter. Candidates whose ball
// provably lies inside the node's knowledge disk read the cache; the
// boundary band is evaluated exactly against the map, restricted to the
// node's knowledge — so the result is identical to the full rescan.
func (c *benefitCache) bestOwned(nodePos geom.Point, rc float64, cells *partition.LocalVoronoi, n int) (idx int, ok bool) {
	fastR := rc - c.rs - 1e-9 // slack absorbs float rounding at the rim
	fast2 := fastR * fastR
	if fastR < 0 {
		fast2 = -1
	}
	rc2 := rc * rc
	bestV, bestIdx := int32(0), -1
	fallbacks := int64(0)
	for s := cells.First(n); s >= 0; s = cells.Next(s) {
		i := cells.SlotPoint(s)
		if c.m.Count(i) >= c.k {
			continue
		}
		var b int32
		if nodePos.Dist2(c.m.Point(i)) <= fast2 {
			b = c.benefit[i]
		} else {
			fallbacks++
			for _, jj := range c.nb.At(i) {
				j := int(jj)
				if nodePos.Dist2(c.m.Point(j)) > rc2 {
					continue // outside the node's knowledge
				}
				b += int32(c.m.Deficit(j))
			}
		}
		if b > bestV || (b == bestV && bestIdx >= 0 && i < bestIdx) {
			bestV, bestIdx = b, i
		}
	}
	if fallbacks > 0 {
		obsCacheFallbacks.Add(fallbacks)
	}
	return bestIdx, bestIdx >= 0
}
