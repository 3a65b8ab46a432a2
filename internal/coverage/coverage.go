// Package coverage maintains the discrete k-coverage state at the core of
// DECOR: a field approximated by a low-discrepancy sample-point set, a set
// of sensors with sensing radius rs, and per-point coverage counts k_p.
//
// It supports incremental sensor addition/removal (O(points within rs)),
// the paper's benefit function (Eq. 1), coverage-fraction metrics, and the
// end-of-run redundant-node identification from §4.
package coverage

import (
	"fmt"
	"sort"

	"decor/internal/geom"
	"decor/internal/index"
)

// Map is the coverage state of one field. It is not safe for concurrent
// mutation.
type Map struct {
	field geom.Rect
	rs    float64
	k     int

	pts       []geom.Point
	ptIdx     *index.Grid
	counts    []int
	deficient int // number of points with counts[i] < k

	// tiles partitions the points into square tiles (tiles.go); tileDef
	// holds each tile's number of points with counts[i] < k.
	tiles   tiling
	tileDef []int32

	sensors   map[int]geom.Point
	sensorIdx *index.Grid
	// sortedIDs mirrors the key set of sensors in ascending order, kept
	// in step on every add/remove so SensorIDs never sorts. Failure
	// models draw from it thousands of times per experiment cell.
	sortedIDs []int
	// sensorRs holds per-sensor sensing radii for heterogeneous
	// deployments (paper §2: radii "may vary, depending on the type of
	// the sensors and on the deployment conditions"). Sensors absent
	// from the map use the default rs.
	sensorRs map[int]float64
	maxRs    float64 // largest radius ever added; bounds ball queries

	// nbCache memoizes PointNeighborhoods per radius: the adjacency
	// depends only on the immutable sample-point set, so a restoration
	// pass on the same map reuses the deployment's build. nbShared,
	// when set via ShareNeighborhoods, replaces it with a cache shared
	// between maps with identical point sets.
	nbCache  map[float64]*index.Neighborhoods
	nbShared *index.NeighborhoodCache
}

// New creates a coverage map over field, approximated by pts, with sensing
// radius rs and reliability requirement k. It panics on invalid rs or k —
// these are programmer errors, not runtime conditions.
func New(field geom.Rect, pts []geom.Point, rs float64, k int) *Map {
	if rs <= 0 {
		panic("coverage: rs must be positive")
	}
	if k < 1 {
		panic("coverage: k must be >= 1")
	}
	m := &Map{
		field:     field,
		rs:        rs,
		k:         k,
		pts:       append([]geom.Point(nil), pts...),
		ptIdx:     index.NewGrid(field, rs),
		counts:    make([]int, len(pts)),
		deficient: len(pts),
		tiles:     newTiling(field, pts),
		sensors:   make(map[int]geom.Point),
		sensorIdx: index.NewGrid(field, rs),
		sensorRs:  make(map[int]float64),
		maxRs:     rs,
	}
	m.tileDef = make([]int32, len(m.tiles.start)-1)
	for t := range m.tileDef {
		m.tileDef[t] = m.tiles.start[t+1] - m.tiles.start[t]
	}
	m.ptIdx.InsertDense(m.pts)
	return m
}

// inc and dec move point i's count by one, keeping the deficiency
// totals in step.
func (m *Map) inc(i int) {
	m.counts[i]++
	if m.counts[i] == m.k {
		m.deficient--
		m.tileDef[m.tiles.tileOf[i]]--
	}
}

func (m *Map) dec(i int) {
	if m.counts[i] == m.k {
		m.deficient++
		m.tileDef[m.tiles.tileOf[i]]++
	}
	m.counts[i]--
}

// Field returns the monitored rectangle.
func (m *Map) Field() geom.Rect { return m.field }

// Rs returns the sensing radius.
func (m *Map) Rs() float64 { return m.rs }

// K returns the reliability requirement.
func (m *Map) K() int { return m.k }

// SetK retunes the reliability requirement in place — the paper's §3
// "the value of the parameter k can be tuned dynamically to achieve the
// desired level of coverage required by the user". Raising k exposes
// new deficits (restorable by any Method); lowering it turns surplus
// sensors redundant (harvestable by RedundantSensors or a sleep
// schedule). It panics for k < 1.
func (m *Map) SetK(k int) {
	if k < 1 {
		panic("coverage: k must be >= 1")
	}
	if k == m.k {
		return
	}
	m.k = k
	m.deficient = 0
	clear(m.tileDef)
	for i, c := range m.counts {
		if c < k {
			m.deficient++
			m.tileDef[m.tiles.tileOf[i]]++
		}
	}
}

// NumPoints returns the number of sample points.
func (m *Map) NumPoints() int { return len(m.pts) }

// Point returns sample point i.
func (m *Map) Point(i int) geom.Point { return m.pts[i] }

// Count returns the current coverage count k_p of sample point i.
func (m *Map) Count(i int) int { return m.counts[i] }

// Counts returns a copy of all coverage counts (a snapshot, used by the
// round-based distributed simulation).
func (m *Map) Counts() []int {
	return append([]int(nil), m.counts...)
}

// CountsInto copies all coverage counts into dst, growing it only when
// too small, and returns the snapshot. Round loops that need a fresh
// snapshot every iteration pass the previous round's slice back in and
// stop allocating after the first round.
func (m *Map) CountsInto(dst []int) []int {
	if cap(dst) < len(m.pts) {
		dst = make([]int, len(m.pts))
	}
	dst = dst[:len(m.pts)]
	copy(dst, m.counts)
	return dst
}

// Deficit returns max(k - k_p, 0) for sample point i.
func (m *Map) Deficit(i int) int {
	if d := m.k - m.counts[i]; d > 0 {
		return d
	}
	return 0
}

// NumDeficient returns the number of sample points with k_p < k.
func (m *Map) NumDeficient() int { return m.deficient }

// FullyCovered reports whether every sample point is k-covered.
func (m *Map) FullyCovered() bool { return m.NumDeficient() == 0 }

// NumSensors returns the number of deployed sensors.
func (m *Map) NumSensors() int { return len(m.sensors) }

// SensorIDs returns all sensor IDs in ascending order.
func (m *Map) SensorIDs() []int {
	return append([]int(nil), m.sortedIDs...)
}

// MaxSensorID returns the largest deployed sensor ID, and false when the
// map has no sensors. It is O(1), unlike reading SensorIDs' last element.
func (m *Map) MaxSensorID() (int, bool) {
	if len(m.sortedIDs) == 0 {
		return 0, false
	}
	return m.sortedIDs[len(m.sortedIDs)-1], true
}

// VisitSensors calls fn for every deployed sensor in ascending ID order
// with its position and effective sensing radius — the allocation-free
// sibling of SensorIDs for hot rebuild loops and snapshot encoders.
// Every query on the map is sensor-order independent (or sorts), so
// replaying the visited (id, pos, rs) triples into a fresh map via
// AddSensorRadius reconstructs an observably identical coverage state.
func (m *Map) VisitSensors(fn func(id int, pos geom.Point, rs float64)) {
	for _, id := range m.sortedIDs {
		rs, ok := m.sensorRs[id]
		if !ok {
			rs = m.rs
		}
		fn(id, m.sensors[id], rs)
	}
}

// insertSortedID keeps sortedIDs ascending. Placement engines allocate
// IDs in increasing order, so the append path is the common case.
func (m *Map) insertSortedID(id int) {
	if n := len(m.sortedIDs); n == 0 || id > m.sortedIDs[n-1] {
		m.sortedIDs = append(m.sortedIDs, id)
		return
	}
	i := sort.SearchInts(m.sortedIDs, id)
	m.sortedIDs = append(m.sortedIDs, 0)
	copy(m.sortedIDs[i+1:], m.sortedIDs[i:])
	m.sortedIDs[i] = id
}

func (m *Map) removeSortedID(id int) {
	i := sort.SearchInts(m.sortedIDs, id)
	if i < len(m.sortedIDs) && m.sortedIDs[i] == id {
		m.sortedIDs = append(m.sortedIDs[:i], m.sortedIDs[i+1:]...)
	}
}

// SensorPos returns the position of a sensor and whether it exists.
func (m *Map) SensorPos(id int) (geom.Point, bool) {
	p, ok := m.sensors[id]
	return p, ok
}

// AddSensor deploys a sensor with the given id at p with the map's
// default sensing radius, incrementing the coverage counts of all sample
// points within it. It panics on duplicate id.
func (m *Map) AddSensor(id int, p geom.Point) {
	m.AddSensorRadius(id, p, m.rs)
}

// AddSensorRadius deploys a sensor with its own sensing radius — the
// paper's heterogeneous setting (§2), where radii vary with sensor type
// and deployment conditions. It panics on duplicate id or non-positive
// radius.
func (m *Map) AddSensorRadius(id int, p geom.Point, rs float64) {
	if _, ok := m.sensors[id]; ok {
		panic(fmt.Sprintf("coverage: duplicate sensor id %d", id))
	}
	if rs <= 0 {
		panic("coverage: sensor radius must be positive")
	}
	m.sensors[id] = p
	m.sensorIdx.Insert(id, p)
	m.insertSortedID(id)
	if rs != m.rs {
		m.sensorRs[id] = rs
	}
	if rs > m.maxRs {
		m.maxRs = rs
	}
	m.ptIdx.VisitBall(p, rs, func(i int, _ geom.Point) bool {
		m.inc(i)
		return true
	})
}

// AddSensorAtPoint deploys sensor id exactly at sample point ptIdx with
// the map's default radius. When the rs adjacency is already built
// (placement engines construct it for their benefit caches) the
// coverage update walks the precomputed neighbor list instead of a
// geometric ball query; otherwise it behaves exactly like AddSensor.
func (m *Map) AddSensorAtPoint(id, ptIdx int) {
	p := m.pts[ptIdx]
	nb := m.cachedNeighborhoods(m.rs)
	if nb == nil {
		m.AddSensor(id, p)
		return
	}
	if _, ok := m.sensors[id]; ok {
		panic(fmt.Sprintf("coverage: duplicate sensor id %d", id))
	}
	m.sensors[id] = p
	m.sensorIdx.Insert(id, p)
	m.insertSortedID(id)
	for _, j := range nb.At(ptIdx) {
		m.inc(int(j))
	}
}

// MaxSensorRadius returns the largest sensing radius ever deployed on
// this map (at least the default rs). Spatial queries that must not miss
// any sensor's footprint use it as their search radius.
func (m *Map) MaxSensorRadius() float64 { return m.maxRs }

// SensorRadius returns the sensing radius of sensor id (the map default
// if the sensor was added homogeneously) and whether the sensor exists.
func (m *Map) SensorRadius(id int) (float64, bool) {
	if _, ok := m.sensors[id]; !ok {
		return 0, false
	}
	if r, ok := m.sensorRs[id]; ok {
		return r, true
	}
	return m.rs, true
}

// RemoveSensor removes the sensor, decrementing coverage counts, and
// reports whether it existed.
func (m *Map) RemoveSensor(id int) bool {
	p, ok := m.sensors[id]
	if !ok {
		return false
	}
	rs, _ := m.SensorRadius(id)
	delete(m.sensors, id)
	delete(m.sensorRs, id)
	m.sensorIdx.Remove(id)
	m.removeSortedID(id)
	m.ptIdx.VisitBall(p, rs, func(i int, _ geom.Point) bool {
		m.dec(i)
		return true
	})
	return true
}

// CoverageFrac returns the fraction of sample points covered by at least
// level sensors. CoverageFrac(k) is the paper's "percentage of k-covered
// points" metric; CoverageFrac(1) its "covered" metric under failures.
func (m *Map) CoverageFrac(level int) float64 {
	if len(m.pts) == 0 {
		return 1
	}
	if level == m.k {
		return float64(len(m.pts)-m.deficient) / float64(len(m.pts))
	}
	n := 0
	for _, c := range m.counts {
		if c >= level {
			n++
		}
	}
	return float64(n) / float64(len(m.pts))
}

// VisitPointsInBall calls fn(i, p) for each sample point within r of c.
func (m *Map) VisitPointsInBall(c geom.Point, r float64, fn func(i int, p geom.Point) bool) {
	m.ptIdx.VisitBall(c, r, fn)
}

// PointsInBall returns the indices of sample points within r of c, sorted
// ascending for determinism.
func (m *Map) PointsInBall(c geom.Point, r float64) []int {
	out := m.ptIdx.Ball(c, r)
	sort.Ints(out)
	return out
}

// AppendPointsInBall is PointsInBall with a caller-supplied buffer:
// matching indices are appended to dst (sorted ascending among
// themselves) and the extended slice returned. Reusing the buffer across
// a round loop makes the query allocation-free.
func (m *Map) AppendPointsInBall(dst []int, c geom.Point, r float64) []int {
	n := len(dst)
	dst = m.ptIdx.AppendBall(dst, c, r)
	sort.Ints(dst[n:])
	return dst
}

// SensorsInBall returns the IDs of sensors within r of c, sorted.
func (m *Map) SensorsInBall(c geom.Point, r float64) []int {
	out := m.sensorIdx.Ball(c, r)
	sort.Ints(out)
	return out
}

// AppendSensorsInBall is SensorsInBall with a caller-supplied buffer,
// mirroring AppendPointsInBall.
func (m *Map) AppendSensorsInBall(dst []int, c geom.Point, r float64) []int {
	n := len(dst)
	dst = m.sensorIdx.AppendBall(dst, c, r)
	sort.Ints(dst[n:])
	return dst
}

// VisitSensorsInBall calls fn(id, p) for each sensor within r of c
// (closed ball), in unspecified order; returning false stops the visit.
// It allocates nothing, unlike SensorsInBall.
func (m *Map) VisitSensorsInBall(c geom.Point, r float64, fn func(id int, p geom.Point) bool) {
	m.sensorIdx.VisitBall(c, r, fn)
}

// CountSensorsInBall returns the number of sensors within r of c.
func (m *Map) CountSensorsInBall(c geom.Point, r float64) int {
	return m.sensorIdx.CountBall(c, r)
}

// PointNeighborhoods precomputes, for every sample point, the indices of
// sample points within r of it (ascending, self included) — the fixed
// adjacency the incremental benefit caches walk on every delta update.
// The result is immutable and safe for concurrent readers. Builds are
// memoized per radius: the adjacency depends only on the sample points,
// never on sensors, so restoring coverage on a map reuses the
// deployment pass's build for free.
func (m *Map) PointNeighborhoods(r float64) *index.Neighborhoods {
	if m.nbShared != nil {
		return m.nbShared.Get(r, func() *index.Neighborhoods {
			return m.ptIdx.BuildNeighborhoods(len(m.pts), r)
		})
	}
	if nb, ok := m.nbCache[r]; ok {
		return nb
	}
	nb := m.ptIdx.BuildNeighborhoods(len(m.pts), r)
	if m.nbCache == nil {
		m.nbCache = make(map[float64]*index.Neighborhoods)
	}
	m.nbCache[r] = nb
	return nb
}

// ShareNeighborhoods routes PointNeighborhoods through shared, a cache
// that outlives this map. Experiment sweeps attach one cache to every
// cell's map: all cells sample the field identically, so the adjacency
// is built once per process instead of once per deployment. The caller
// must guarantee the sharing maps have identical sample-point sets.
func (m *Map) ShareNeighborhoods(shared *index.NeighborhoodCache) {
	m.nbShared = shared
}

// cachedNeighborhoods returns the adjacency for radius r only if it has
// already been built, never triggering a build.
func (m *Map) cachedNeighborhoods(r float64) *index.Neighborhoods {
	if m.nbShared != nil {
		return m.nbShared.Peek(r)
	}
	return m.nbCache[r]
}

// Benefit computes the paper's Eq. 1 for a candidate sensor position c
// against the map's current counts:
//
//	b(c) = Σ_{p: d(p,c) <= rs} max(k − k_p, 0)
func (m *Map) Benefit(c geom.Point) int {
	return m.BenefitRadius(c, m.rs)
}

// BenefitRadius computes Eq. 1 for a candidate sensor whose sensing
// radius differs from the map default (heterogeneous deployments, §2).
func (m *Map) BenefitRadius(c geom.Point, rs float64) int {
	b := 0
	m.ptIdx.VisitBall(c, rs, func(i int, _ geom.Point) bool {
		if d := m.k - m.counts[i]; d > 0 {
			b += d
		}
		return true
	})
	return b
}

// BenefitWith computes Eq. 1 using an arbitrary perceived-count function,
// letting distributed nodes evaluate benefit against their own (possibly
// stale or partial) knowledge. Points for which perceived returns a
// negative value are treated as unknown and skipped.
func (m *Map) BenefitWith(c geom.Point, perceived func(i int) int) int {
	return m.BenefitWithRadius(c, m.rs, perceived)
}

// BenefitWithRadius is BenefitWith for a candidate sensor with its own
// sensing radius (heterogeneous distributed deployments).
func (m *Map) BenefitWithRadius(c geom.Point, rs float64, perceived func(i int) int) int {
	b := 0
	m.ptIdx.VisitBall(c, rs, func(i int, _ geom.Point) bool {
		kp := perceived(i)
		if kp < 0 {
			return true
		}
		if d := m.k - kp; d > 0 {
			b += d
		}
		return true
	})
	return b
}

// UncoveredPoints returns the indices of all sample points with k_p < k,
// sorted ascending.
func (m *Map) UncoveredPoints() []int {
	var out []int
	for i, c := range m.counts {
		if c < m.k {
			out = append(out, i)
		}
	}
	return out
}

// IsRedundant reports whether removing sensor id would keep every sample
// point it covers at k_p >= k (i.e. all its covered points have counts
// strictly above k, or are already below k and thus not "achieved" by it).
//
// The paper defines a redundant node as one that "does not contribute to
// the coverage of the area": eliminating it still achieves k-coverage of
// every point it covers to at least the level the point had.
func (m *Map) IsRedundant(id int) bool {
	p, ok := m.sensors[id]
	if !ok {
		return false
	}
	rs, _ := m.SensorRadius(id)
	redundant := true
	m.ptIdx.VisitBall(p, rs, func(i int, _ geom.Point) bool {
		// Removing the sensor lowers this point's count by one. The node
		// "contributes" if that would take a currently >=k point below k,
		// or reduce an under-covered point further.
		if m.counts[i] <= m.k {
			redundant = false
			return false
		}
		return true
	})
	return redundant
}

// RedundantSensors greedily identifies a maximal removable set: sensors
// whose sequential elimination (ascending ID) never drops any sample point
// below its requirement. The map is restored before returning; only the
// identified IDs are reported.
func (m *Map) RedundantSensors() []int {
	var removed []int
	ids := m.SensorIDs()
	type saved struct {
		pos geom.Point
		rs  float64
	}
	state := make(map[int]saved, len(ids))
	for {
		progress := false
		for _, id := range ids {
			if _, gone := state[id]; gone {
				continue
			}
			if m.IsRedundant(id) {
				rs, _ := m.SensorRadius(id)
				state[id] = saved{pos: m.sensors[id], rs: rs}
				m.RemoveSensor(id)
				removed = append(removed, id)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	// Restore.
	for _, id := range removed {
		m.AddSensorRadius(id, state[id].pos, state[id].rs)
	}
	sort.Ints(removed)
	return removed
}

// Clone returns an independent copy of the map, including sensors and
// their individual radii. Only immutable state is shared: the sample
// points, their spatial index and tile partition (never mutated after
// construction), and the shared neighborhood cache. Sensors can be added
// to or removed from the clone without affecting the original — an
// experiment builds the initial deployment once and hands each method a
// private copy, skipping the per-method ball queries of re-scattering.
func (m *Map) Clone() *Map {
	c := &Map{
		field:     m.field,
		rs:        m.rs,
		k:         m.k,
		pts:       m.pts,
		ptIdx:     m.ptIdx,
		counts:    append([]int(nil), m.counts...),
		deficient: m.deficient,
		tiles:     m.tiles,
		tileDef:   append([]int32(nil), m.tileDef...),
		sensors:   make(map[int]geom.Point, len(m.sensors)),
		sensorIdx: m.sensorIdx.Clone(),
		sortedIDs: append([]int(nil), m.sortedIDs...),
		sensorRs:  make(map[int]float64, len(m.sensorRs)),
		maxRs:     m.maxRs,
		nbShared:  m.nbShared,
	}
	for id, p := range m.sensors {
		c.sensors[id] = p
	}
	for id, r := range m.sensorRs {
		c.sensorRs[id] = r
	}
	return c
}

// CoverageHistogram returns counts[j] = number of sample points covered by
// exactly j sensors, for j in [0, max].
func (m *Map) CoverageHistogram() []int {
	maxC := 0
	for _, c := range m.counts {
		if c > maxC {
			maxC = c
		}
	}
	hist := make([]int, maxC+1)
	for _, c := range m.counts {
		hist[c]++
	}
	return hist
}
