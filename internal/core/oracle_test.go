package core

import (
	"sort"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/index"
)

// Reference implementations ("oracles") for the differential tests.
// The rescan oracles re-evaluate every candidate's benefit from scratch
// against a snapshot of the coverage counts, exactly as the seed
// implementation did, with none of the production engines' caches,
// memos or tile shortcuts. The parity suites hold every engine
// byte-identical to its oracle.

// bestCandidateRadius returns the deficient candidate with the highest
// perceived benefit for a new sensor of radius rs, ties broken by lowest
// point index for determinism. candidates must be sorted ascending;
// perceived returns a point's believed coverage count (negative =
// unknown, skipped inside benefit). ok is false when no candidate has
// positive benefit.
func bestCandidateRadius(m *coverage.Map, rs float64, candidates []int, perceived func(i int) int) (idx int, benefit int, ok bool) {
	best, bestIdx := 0, -1
	for _, c := range candidates {
		if kp := perceived(c); kp < 0 || kp >= m.K() {
			continue // not deficient under this node's knowledge
		}
		b := m.BenefitWithRadius(m.Point(c), rs, perceived)
		if b > best {
			best, bestIdx = b, c
		}
	}
	if bestIdx < 0 {
		return 0, 0, false
	}
	return bestIdx, best, true
}

// gridRescan is the reference GridDECOR deployment: every round each
// leader rescans its candidates through decideRescan, and the base
// station seeds UncoveredPoints()[0].
func gridRescan(g GridDECOR, m *coverage.Map, opt Options) Result {
	newRs := g.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	res := Result{Method: g.Name(), NodeMessages: map[int]int{}}
	st := newGridState(m, g.CellSize, &res)
	nextID := nextSensorID(m)
	var decided []gridPlacement
	var snapBuf []int
	for round := 0; !m.FullyCovered(); round++ {
		if res.Capped {
			break
		}
		if opt.interrupted() {
			res.Interrupted = true
			break
		}
		decided = decided[:0]
		snapBuf = m.CountsInto(snapBuf)
		decided = g.decideRescan(st, snapBuf, newRs, round, decided)
		if len(decided) == 0 {
			unc := m.UncoveredPoints()
			if len(unc) == 0 {
				break
			}
			decided = append(decided, gridPlacement{leader: -1, cell: st.cellOf[unc[0]], pos: m.Point(unc[0]), ptIdx: unc[0]})
			res.Seeded++
		}
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			id := nextID
			nextID++
			m.AddSensorRadius(id, d.pos, newRs)
			st.members[d.cell] = append(st.members[d.cell], id)
			res.Placed = append(res.Placed, Placement{ID: id, Pos: d.pos, Round: round})
			if d.leader < 0 {
				continue // base-station seed: no leader messages
			}
			disk := geom.Disk{Center: d.pos, R: newRs}
			for _, nc := range st.nbrs[d.cell] {
				if len(st.members[nc]) == 0 {
					continue
				}
				if disk.IntersectsRect(st.part.CellRect(nc)) {
					res.Messages++
					res.NodeMessages[d.leader]++
				}
			}
			if d.cell != st.part.CellIndex(func() geom.Point { p, _ := m.SensorPos(d.leader); return p }()) {
				res.Messages++ // instruct the remote cell's new leader
				res.NodeMessages[d.leader]++
			}
		}
		res.Rounds = round + 1
	}
	return res
}

// decideRescan is the reference decision path: every candidate's benefit
// is recomputed from the round snapshot through bestCandidateRadius.
func (g GridDECOR) decideRescan(st *gridState, snap []int, newRs float64, round int, decided []gridPlacement) []gridPlacement {
	m := st.m
	perceive := func(cell int) func(i int) int {
		return func(i int) int {
			if st.cellOf[i] != cell {
				return -1 // outside the leader's knowledge
			}
			return snap[i]
		}
	}
	for c, mem := range st.members {
		if g.Sequential && len(decided) > 0 {
			break
		}
		if len(mem) == 0 {
			continue
		}
		leader := mem[round%len(mem)]
		// Own cell first.
		if idx, _, ok := bestCandidateRadius(m, newRs, st.cells[c], perceive(c)); ok {
			decided = append(decided, gridPlacement{leader, c, m.Point(idx), idx})
			continue
		}
		// Own cell covered: adopt the first empty deficient neighbor.
		for _, nc := range st.nbrs[c] {
			if len(st.members[nc]) > 0 {
				continue
			}
			if idx, _, ok := bestCandidateRadius(m, newRs, st.cells[nc], perceive(nc)); ok {
				decided = append(decided, gridPlacement{leader, nc, m.Point(idx), idx})
				break
			}
		}
	}
	return decided
}

// voronoiRescan is the reference VoronoiDECOR deployment: every node
// rescans its owned candidates against the round snapshot, restricted
// to the points within its communication radius. Ownership comes from
// the eager whole-field partition below, updated on every placement.
func voronoiRescan(v VoronoiDECOR, m *coverage.Map, opt Options) Result {
	newRs := v.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	res := Result{Method: v.Name(), NodeMessages: map[int]int{}}
	pts := make([]geom.Point, m.NumPoints())
	for i := range pts {
		pts[i] = m.Point(i)
	}
	vor := newVoronoiPartition(m.Field(), pts, v.Rc)
	type node struct {
		id  int
		pos geom.Point
	}
	var nodes []node
	for _, id := range m.SensorIDs() {
		p, _ := m.SensorPos(id)
		vor.AddSensor(id, p)
		nodes = append(nodes, node{id, p})
	}
	type placement struct {
		owner int // sensor id, -1 = base-station seed
		pos   geom.Point
	}
	nextID := nextSensorID(m)
	var decided []placement
	var snapBuf []int
	for round := 0; !m.FullyCovered(); round++ {
		if res.Capped {
			break
		}
		if opt.interrupted() {
			res.Interrupted = true
			break
		}
		decided = decided[:0]
		snapBuf = m.CountsInto(snapBuf)
		snap := snapBuf
		for _, nd := range nodes {
			if v.Sequential && len(decided) > 0 {
				break
			}
			owned := vor.OwnedPoints(nd.id)
			if len(owned) == 0 {
				continue
			}
			nodePos := nd.pos
			perceive := func(i int) int {
				// The node accurately knows the coverage of every point
				// within its communication radius (§3.3, rs <= rc).
				if nodePos.Dist2(m.Point(i)) > v.Rc*v.Rc {
					return -1
				}
				return snap[i]
			}
			if idx, _, ok := bestCandidateRadius(m, newRs, owned, perceive); ok {
				decided = append(decided, placement{owner: nd.id, pos: m.Point(idx)})
			}
		}
		if len(decided) == 0 {
			unc := m.UncoveredPoints()
			if len(unc) == 0 {
				break
			}
			decided = append(decided, placement{owner: -1, pos: m.Point(unc[0])})
			res.Seeded++
		}
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			if d.owner >= 0 {
				n := vor.NeighborCount(d.owner) + 1
				res.Messages += n
				res.NodeMessages[d.owner] += n
			}
			id := nextID
			nextID++
			m.AddSensorRadius(id, d.pos, newRs)
			vor.AddSensor(id, d.pos)
			nodes = append(nodes, node{id, d.pos})
			res.Placed = append(res.Placed, Placement{ID: id, Pos: d.pos, Round: round})
		}
		res.Rounds = round + 1
	}
	res.Cells = m.NumSensors()
	return res
}

// voronoiPartition is the eager local Voronoi partition (Definition 1)
// over every sample point: each point is owned by the nearest sensor
// within rc, orphaned (owner -1) when no sensor is that close. Every
// AddSensor reassigns the points within rc that are now nearest to the
// new sensor. Sensors must be added in ascending id order, so that an
// equal-distance incumbent (the lower id) keeps its point.
type voronoiPartition struct {
	rc      float64
	ptIdx   *index.Grid
	sensors map[int]geom.Point
	owner   []int
	// ownerD2 caches each point's squared distance to its owner; pos
	// holds each point's index within its owner's list, making
	// dispossession an O(1) swap-delete.
	ownerD2 []float64
	pos     []int
	owned   map[int][]int // sensor id -> owned point indices, unordered
}

func newVoronoiPartition(field geom.Rect, pts []geom.Point, rc float64) *voronoiPartition {
	v := &voronoiPartition{
		rc:      rc,
		ptIdx:   index.NewGrid(field, rc/2, pts),
		sensors: make(map[int]geom.Point),
		owner:   make([]int, len(pts)),
		ownerD2: make([]float64, len(pts)),
		pos:     make([]int, len(pts)),
		owned:   make(map[int][]int),
	}
	for i := range v.owner {
		v.owner[i] = -1
	}
	return v
}

// OwnedPoints returns the sample points owned by sensor id, ascending.
func (v *voronoiPartition) OwnedPoints(id int) []int {
	out := append([]int(nil), v.owned[id]...)
	sort.Ints(out)
	return out
}

// AddSensor registers a sensor and takes over the points within rc that
// are now nearest to it.
func (v *voronoiPartition) AddSensor(id int, p geom.Point) {
	v.sensors[id] = p
	v.ptIdx.VisitBall(p, v.rc, func(i int, pp geom.Point) bool {
		cur := v.owner[i]
		d2 := p.Dist2(pp)
		// The incumbent keeps the point when strictly closer, or at
		// equal distance with the lower id.
		if cur >= 0 && (d2 > v.ownerD2[i] || (d2 == v.ownerD2[i] && cur < id)) {
			return true
		}
		if cur >= 0 {
			v.detach(cur, i)
		}
		v.owner[i] = id
		v.ownerD2[i] = d2
		v.pos[i] = len(v.owned[id])
		v.owned[id] = append(v.owned[id], i)
		return true
	})
}

// detach removes point i from its current owner's list by swap-delete.
func (v *voronoiPartition) detach(owner, i int) {
	ids := v.owned[owner]
	j, last := v.pos[i], len(ids)-1
	ids[j] = ids[last]
	v.pos[ids[j]] = j
	v.owned[owner] = ids[:last]
}

// NeighborCount returns the number of sensors within rc of sensor id,
// excluding id, by a scan of every sensor.
func (v *voronoiPartition) NeighborCount(id int) int {
	p := v.sensors[id]
	n := 0
	for sid, q := range v.sensors {
		if sid != id && q.Dist2(p) <= v.rc*v.rc {
			n++
		}
	}
	return n
}

// centralizedRescan is the reference centralized greedy, the
// straightforward O(placements · N · ball) scan.
func centralizedRescan(c Centralized, m *coverage.Map, opt Options) Result {
	res := Result{Method: c.Name(), NodeMessages: map[int]int{}, Cells: 1, Rounds: 1}
	id := nextSensorID(m)
	newRs := c.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	for !m.FullyCovered() {
		if len(res.Placed) >= opt.maxPlacements() {
			res.Capped = true
			return res
		}
		if opt.interrupted() {
			res.Interrupted = true
			return res
		}
		// Select the deficient candidate with maximum benefit for the
		// new sensor's footprint, lowest index on ties.
		bestIdx, best := -1, 0
		for i := 0; i < m.NumPoints(); i++ {
			if m.Count(i) >= m.K() {
				continue
			}
			if b := m.BenefitRadius(m.Point(i), newRs); b > best {
				best, bestIdx = b, i
			}
		}
		if bestIdx < 0 {
			return res // unreachable: a deficient point always benefits itself
		}
		p := m.Point(bestIdx)
		m.AddSensorRadius(id, p, newRs)
		res.Placed = append(res.Placed, Placement{ID: id, Pos: p})
		id++
	}
	return res
}

// centralizedIncremental is the reference centralized greedy with
// incremental benefit maintenance but a full argmax scan per placement:
// O(placements · N) instead of the rescan's O(placements · N · ball),
// which keeps multi-tile parity tests affordable. The small-field
// parity tests hold it, like the engine, equal to centralizedRescan.
func centralizedIncremental(c Centralized, m *coverage.Map, opt Options) Result {
	res := Result{Method: c.Name(), NodeMessages: map[int]int{}, Cells: 1, Rounds: 1}
	n := m.NumPoints()
	rs := c.NewRs
	if rs <= 0 {
		rs = m.Rs()
	}
	nb := m.PointNeighborhoods(rs)
	benefit := make([]int, n)
	for j := 0; j < n; j++ {
		if d := m.Deficit(j); d > 0 {
			for _, i := range nb.At(j) {
				benefit[i] += d
			}
		}
	}
	id := nextSensorID(m)
	var affected []int32
	for !m.FullyCovered() {
		if len(res.Placed) >= opt.maxPlacements() {
			res.Capped = true
			return res
		}
		if opt.interrupted() {
			res.Interrupted = true
			return res
		}
		// Select the deficient candidate with max benefit, lowest index
		// on ties — identical criterion to bestCandidateRadius.
		bestIdx, best := -1, 0
		for i := 0; i < n; i++ {
			if m.Count(i) >= m.K() {
				continue
			}
			if benefit[i] > best {
				best, bestIdx = benefit[i], i
			}
		}
		if bestIdx < 0 {
			return res
		}
		p := m.Point(bestIdx)
		// Points whose deficit will shrink by this placement.
		affected = affected[:0]
		for _, j := range nb.At(bestIdx) {
			if m.Deficit(int(j)) > 0 {
				affected = append(affected, j)
			}
		}
		m.AddSensorRadius(id, p, rs)
		for _, j := range affected {
			for _, i := range nb.At(int(j)) {
				benefit[i]--
			}
		}
		res.Placed = append(res.Placed, Placement{ID: id, Pos: p})
		id++
	}
	return res
}
