package core

import (
	"fmt"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/obs"
	"decor/internal/partition"
	"decor/internal/rng"
)

// VoronoiDECOR is the paper's Voronoi-based DECOR variant (§3.1,
// Definition 1): every sensor owns the sample points closest to it among
// the sensors within its communication radius Rc, estimates their
// coverage (accurate because rs <= rc), and greedily places new sensors
// at its most beneficial deficient owned point. Newly placed sensors
// carve out their own local Voronoi cells and continue the expansion,
// "gradually covering the entire uncovered region".
//
// The paper evaluates Rc = 2·rs = 8 ("small rc") and Rc = 10·√2 ≈ 14.14
// ("big rc", matching the maximum inter-leader distance of the 5×5 grid).
type VoronoiDECOR struct {
	Rc float64
	// Sequential serializes the distributed execution: one placement per
	// round (see GridDECOR.Sequential).
	Sequential bool
	// NewRs overrides the sensing radius of newly placed sensors
	// (0 = the map default).
	NewRs float64
}

// Name implements Method.
func (v VoronoiDECOR) Name() string {
	if v.Rc <= 10 {
		return "voronoi-small"
	}
	return "voronoi-big"
}

// voronoiNode is one acting sensor, tracked in an ascending-id slice so
// the round loop never re-sorts the sensor set.
type voronoiNode struct {
	id  int
	pos geom.Point
}

// voronoiPlacement is one node decision within a round.
type voronoiPlacement struct {
	owner int
	pos   geom.Point
	ptIdx int
}

// Deploy implements Method.
func (v VoronoiDECOR) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	if v.Rc < m.Rs() {
		panic("core: VoronoiDECOR requires rc >= rs (paper §2)")
	}
	newRs := v.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	if newRs > v.Rc {
		panic("core: VoronoiDECOR requires rs <= rc for new sensors too")
	}
	res := Result{Method: v.Name(), NodeMessages: map[int]int{}}
	tctx, depSpan := obs.StartSpanCtx(opt.Ctx, "core.deploy")

	pts := make([]geom.Point, m.NumPoints())
	for i := range pts {
		pts[i] = m.Point(i)
	}
	vor := partition.NewVoronoi(m.Field(), pts, v.Rc)
	// nodes stays ascending by id: the initial sensors are sorted and
	// every placed id exceeds all previous ones.
	var nodes []voronoiNode
	for _, id := range m.SensorIDs() {
		p, _ := m.SensorPos(id)
		vor.AddSensor(id, p)
		nodes = append(nodes, voronoiNode{id, p})
	}

	cache := newBenefitCache(m, newRs, nil, 0)
	defer cache.flush()
	// The rc adjacency turns each placement's ownership claim into a
	// precomputed-list walk (AddSensorAt); shared across deployments via
	// the map's neighborhood cache.
	nbRc := m.PointNeighborhoods(v.Rc)

	nextID := nextSensorID(m)
	var decided []voronoiPlacement
	for round := 0; !m.FullyCovered() && round < opt.maxRounds(); round++ {
		if res.Capped {
			break
		}
		if opt.interrupted() {
			res.Interrupted = true
			break
		}
		roundSpan := obs.StartSpan(obs.CoreRoundSeconds)
		_, trSpan := obs.StartSpanCtx(tctx, "core.round")
		decided = decided[:0]
		evalSpan := obs.StartSpan(obs.CoreBenefitEvalSeconds)
		// Every sensor alive at round start acts concurrently on the
		// round-start coverage and ownership.
		for _, nd := range nodes {
			if v.Sequential && len(decided) > 0 {
				break
			}
			if vor.NumOwned(nd.id) == 0 {
				continue
			}
			if idx, ok := cache.bestOwned(nd.pos, v.Rc, vor, nd.id); ok {
				decided = append(decided, voronoiPlacement{owner: nd.id, pos: m.Point(idx), ptIdx: idx})
			}
		}
		evalSpan.End()
		if len(decided) == 0 {
			// Remaining deficient points are orphans outside every
			// sensor's communication radius; the base station seeds the
			// lowest one (the paper's empty-region fallback).
			u := m.LowestDeficient()
			if u < 0 {
				roundSpan.End()
				trSpan.End()
				break
			}
			decided = append(decided, voronoiPlacement{owner: -1, pos: m.Point(u), ptIdx: u})
			res.Seeded++
		}
		// Apply placements at the end of the round; ownership and
		// coverage notifications propagate before the next round.
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			if d.owner >= 0 {
				// The placing node announces the new sensor to its 1-hop
				// neighborhood: one message per communication neighbor,
				// plus one to initialize the new node. Message cost is
				// therefore proportional to rc, as in Fig. 10.
				n := vor.NeighborCount(d.owner) + 1
				res.Messages += n
				res.NodeMessages[d.owner] += n
			}
			id := nextID
			nextID++
			cache.applyPlacement(d.ptIdx)
			if newRs == m.Rs() {
				m.AddSensorAtPoint(id, d.ptIdx)
			} else {
				m.AddSensorRadius(id, d.pos, newRs)
			}
			vor.AddSensorAt(id, d.ptIdx, nbRc)
			nodes = append(nodes, voronoiNode{id, d.pos})
			res.Placed = append(res.Placed, Placement{ID: id, Pos: d.pos, Round: round})
		}
		res.Rounds = round + 1
		roundSpan.End()
		if trSpan != nil {
			trSpan.SetAttr(fmt.Sprintf("round=%d placed=%d", round, len(decided)))
			trSpan.End()
		}
	}
	if depSpan != nil {
		depSpan.SetAttr(fmt.Sprintf("method=%s rounds=%d placed=%d", res.Method, res.Rounds, len(res.Placed)))
		depSpan.End()
	}
	// One node per cell: normalize messages by the final node count.
	res.Cells = m.NumSensors()
	return res
}

// interface check
var _ Method = VoronoiDECOR{}
var _ Method = GridDECOR{}
var _ Method = Centralized{}
var _ Method = RandomPlacement{}
