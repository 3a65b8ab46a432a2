// Package coverage maintains the discrete k-coverage state at the core of
// DECOR: a field approximated by a low-discrepancy sample-point set, a set
// of sensors with sensing radius rs, and per-point coverage counts k_p.
//
// It supports incremental sensor addition/removal (O(points within rs)),
// the paper's benefit function (Eq. 1), coverage-fraction metrics, and the
// end-of-run redundant-node identification from §4.
package coverage

import (
	"sort"

	"decor/internal/geom"
	"decor/internal/index"
)

// Map is the coverage state of one field: a shared, immutable PointSet
// plus this map's own counts, deficits and sensors. It is not safe for
// concurrent mutation.
type Map struct {
	ps *PointSet
	k  int

	counts    []int
	deficient int // number of points with counts[i] < k
	// tileDef holds each tile's number of points with counts[i] < k
	// (tiles.go).
	tileDef []int32

	// sensors holds every deployed sensor with its own sensing radius
	// (paper §2: radii "may vary, depending on the type of the sensors
	// and on the deployment conditions"), chained through the point
	// index's buckets (sensors.go).
	sensors sensorTable
	maxRs   float64 // largest radius ever added; bounds ball queries
}

// New creates a coverage map over field, approximated by pts, with sensing
// radius rs and reliability requirement k: NewMap over a private
// NewPointSet holding a copy of pts. It panics on invalid rs or k —
// these are programmer errors, not runtime conditions.
func New(field geom.Rect, pts []geom.Point, rs float64, k int) *Map {
	return NewMap(NewPointSet(field, append([]geom.Point(nil), pts...), rs), k)
}

// NewMap creates a sensorless coverage map over ps, with the set's
// sensing radius and reliability requirement k. It panics on k < 1.
func NewMap(ps *PointSet, k int) *Map {
	if k < 1 {
		panic("coverage: k must be >= 1")
	}
	n := len(ps.pts)
	m := &Map{
		ps:        ps,
		k:         k,
		counts:    make([]int, n),
		deficient: n,
		tileDef:   make([]int32, len(ps.tiles.start)-1),
		sensors:   newSensorTable(&ps.idx.Buckets),
		maxRs:     ps.rs,
	}
	for t := range m.tileDef {
		m.tileDef[t] = ps.tiles.start[t+1] - ps.tiles.start[t]
	}
	return m
}

// inc and dec move point i's count by one, keeping the deficiency
// totals in step.
func (m *Map) inc(i int) {
	m.counts[i]++
	if m.counts[i] == m.k {
		m.deficient--
		m.tileDef[m.ps.tiles.tileOf[i]]--
	}
}

func (m *Map) dec(i int) {
	if m.counts[i] == m.k {
		m.deficient++
		m.tileDef[m.ps.tiles.tileOf[i]]++
	}
	m.counts[i]--
}

// Field returns the monitored rectangle.
func (m *Map) Field() geom.Rect { return m.ps.field }

// Rs returns the sensing radius.
func (m *Map) Rs() float64 { return m.ps.rs }

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
			m.tileDef[m.ps.tiles.tileOf[i]]++
		}
	}
}

// NumPoints returns the number of sample points.
func (m *Map) NumPoints() int { return len(m.ps.pts) }

// Point returns sample point i.
func (m *Map) Point(i int) geom.Point { return m.ps.pts[i] }

// Count returns the current coverage count k_p of sample point i.
func (m *Map) Count(i int) int { return m.counts[i] }

// CountsInto copies all coverage counts into dst, growing it only when
// too small, and returns the snapshot. Round loops that need a fresh
// snapshot every iteration pass the previous round's slice back in and
// stop allocating after the first round.
func (m *Map) CountsInto(dst []int) []int {
	if cap(dst) < len(m.counts) {
		dst = make([]int, len(m.counts))
	}
	dst = dst[:len(m.counts)]
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
func (m *Map) NumSensors() int { return len(m.sensors.ids) }

// SensorIDs returns all sensor IDs in ascending order.
func (m *Map) SensorIDs() []int {
	return append([]int(nil), m.sensors.ids...)
}

// MaxSensorID returns the largest deployed sensor ID, and false when the
// map has no sensors. It is O(1), unlike reading SensorIDs' last element.
func (m *Map) MaxSensorID() (int, bool) {
	ids := m.sensors.ids
	if len(ids) == 0 {
		return 0, false
	}
	return ids[len(ids)-1], true
}

// VisitSensors calls fn for every deployed sensor in ascending ID order
// with its position and effective sensing radius — the allocation-free
// sibling of SensorIDs for hot rebuild loops and snapshot encoders.
// Every query on the map is sensor-order independent (or sorts), so
// replaying the visited (id, pos, rs) triples into a fresh map via
// AddSensorRadius reconstructs an observably identical coverage state.
func (m *Map) VisitSensors(fn func(id int, pos geom.Point, rs float64)) {
	for _, id := range m.sensors.ids {
		s := m.sensors.get(id)
		fn(id, s.pos, s.rs)
	}
}

// SensorPos returns the position of a sensor and whether it exists.
func (m *Map) SensorPos(id int) (geom.Point, bool) {
	if s := m.sensors.get(id); s != nil {
		return s.pos, true
	}
	return geom.Point{}, false
}

// AddSensor deploys a sensor with the given id at p with the map's
// default sensing radius, incrementing the coverage counts of all sample
// points within it. It panics on duplicate id.
func (m *Map) AddSensor(id int, p geom.Point) {
	m.AddSensorRadius(id, p, m.ps.rs)
}

// AddSensorRadius deploys a sensor with its own sensing radius — the
// paper's heterogeneous setting (§2), where radii vary with sensor type
// and deployment conditions. It panics on duplicate id or non-positive
// radius.
func (m *Map) AddSensorRadius(id int, p geom.Point, rs float64) {
	m.sensors.mustBeNew(id)
	if rs <= 0 {
		panic("coverage: sensor radius must be positive")
	}
	m.sensors.add(id, p, rs)
	if rs > m.maxRs {
		m.maxRs = rs
	}
	m.ps.idx.VisitBall(p, rs, func(i int, _ geom.Point) bool {
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
	p := m.ps.pts[ptIdx]
	nb := m.ps.BuiltNeighborhoods(m.ps.rs)
	if nb == nil {
		m.AddSensor(id, p)
		return
	}
	m.sensors.mustBeNew(id)
	m.sensors.add(id, p, m.ps.rs)
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
	if s := m.sensors.get(id); s != nil {
		return s.rs, true
	}
	return 0, false
}

// RemoveSensor removes the sensor, decrementing coverage counts, and
// reports whether it existed.
func (m *Map) RemoveSensor(id int) bool {
	s, ok := m.sensors.remove(id)
	if !ok {
		return false
	}
	m.ps.idx.VisitBall(s.pos, s.rs, func(i int, _ geom.Point) bool {
		m.dec(i)
		return true
	})
	return true
}

// CoverageFrac returns the fraction of sample points covered by at least
// level sensors. CoverageFrac(k) is the paper's "percentage of k-covered
// points" metric; CoverageFrac(1) its "covered" metric under failures.
func (m *Map) CoverageFrac(level int) float64 {
	if len(m.counts) == 0 {
		return 1
	}
	if level == m.k {
		return float64(len(m.counts)-m.deficient) / float64(len(m.counts))
	}
	n := 0
	for _, c := range m.counts {
		if c >= level {
			n++
		}
	}
	return float64(n) / float64(len(m.counts))
}

// VisitPointsInBall calls fn(i, p) for each sample point within r of c.
func (m *Map) VisitPointsInBall(c geom.Point, r float64, fn func(i int, p geom.Point) bool) {
	m.ps.idx.VisitBall(c, r, fn)
}

// AppendPointsInBall appends the indices of sample points within r of c
// to dst, sorted ascending among themselves, and returns the extended
// slice. Reusing the buffer across a round loop makes the query
// allocation-free.
func (m *Map) AppendPointsInBall(dst []int, c geom.Point, r float64) []int {
	n := len(dst)
	dst = m.ps.idx.AppendBall(dst, c, r)
	sort.Ints(dst[n:])
	return dst
}

// SensorsInBall returns the IDs of sensors within r of c, sorted.
func (m *Map) SensorsInBall(c geom.Point, r float64) []int {
	return m.AppendSensorsInBall(nil, c, r)
}

// AppendSensorsInBall is SensorsInBall with a caller-supplied buffer,
// mirroring AppendPointsInBall.
func (m *Map) AppendSensorsInBall(dst []int, c geom.Point, r float64) []int {
	n := len(dst)
	m.VisitSensorsInBall(c, r, func(id int, _ geom.Point) bool {
		dst = append(dst, id)
		return true
	})
	sort.Ints(dst[n:])
	return dst
}

// VisitSensorsInBall calls fn(id, p) for each sensor within r of c
// (closed ball), in unspecified order; returning false stops the visit.
// It allocates nothing, unlike SensorsInBall.
func (m *Map) VisitSensorsInBall(c geom.Point, r float64, fn func(id int, p geom.Point) bool) {
	if r < 0 {
		return
	}
	t := &m.sensors
	r2 := r * r
	x0, x1, y0, y1 := t.geo.Span(c, r)
	for cy := y0; cy <= y1; cy++ {
		row := cy * t.geo.Cols()
		for b := row + x0; b <= row+x1; b++ {
			for s := t.heads[b]; s >= 0; s = t.slots[s].next {
				if sl := &t.slots[s]; sl.pos.Dist2(c) <= r2 && !fn(sl.id, sl.pos) {
					return
				}
			}
		}
	}
}

// CountSensorsInBall returns the number of sensors within r of c.
func (m *Map) CountSensorsInBall(c geom.Point, r float64) int {
	n := 0
	m.VisitSensorsInBall(c, r, func(int, geom.Point) bool { n++; return true })
	return n
}

// PointNeighborhoods returns the point set's within-r adjacency
// (PointSet.Neighborhoods): built once per radius and point set, so a
// restoration pass — and every other map over the same points — reuses
// the first deployment's build.
func (m *Map) PointNeighborhoods(r float64) *index.Neighborhoods {
	return m.ps.Neighborhoods(r)
}

// Benefit computes the paper's Eq. 1 for a candidate sensor position c
// against the map's current counts:
//
//	b(c) = Σ_{p: d(p,c) <= rs} max(k − k_p, 0)
func (m *Map) Benefit(c geom.Point) int {
	return m.BenefitRadius(c, m.ps.rs)
}

// BenefitRadius computes Eq. 1 for a candidate sensor whose sensing
// radius differs from the map default (heterogeneous deployments, §2).
func (m *Map) BenefitRadius(c geom.Point, rs float64) int {
	b := 0
	m.ps.idx.VisitBall(c, rs, func(i int, _ geom.Point) bool {
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
	return m.BenefitWithRadius(c, m.ps.rs, perceived)
}

// BenefitWithRadius is BenefitWith for a candidate sensor with its own
// sensing radius (heterogeneous distributed deployments).
func (m *Map) BenefitWithRadius(c geom.Point, rs float64, perceived func(i int) int) int {
	b := 0
	m.ps.idx.VisitBall(c, rs, func(i int, _ geom.Point) bool {
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
	s := m.sensors.get(id)
	if s == nil {
		return false
	}
	redundant := true
	m.ps.idx.VisitBall(s.pos, s.rs, func(i int, _ geom.Point) bool {
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
	state := make(map[int]sensorSlot, len(ids))
	for {
		progress := false
		for _, id := range ids {
			if _, gone := state[id]; gone {
				continue
			}
			if m.IsRedundant(id) {
				state[id] = *m.sensors.get(id)
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
// their individual radii. Only the immutable PointSet is shared.
// Sensors can be added to or removed from the clone without affecting
// the original — an experiment builds the initial deployment once and
// hands each method a private copy, skipping the per-method ball
// queries of re-scattering.
func (m *Map) Clone() *Map {
	return &Map{
		ps:        m.ps,
		k:         m.k,
		counts:    append([]int(nil), m.counts...),
		deficient: m.deficient,
		tileDef:   append([]int32(nil), m.tileDef...),
		sensors:   m.sensors.clone(),
		maxRs:     m.maxRs,
	}
}
