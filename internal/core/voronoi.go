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

// newVoronoiCells tracks m's deficient points in a local Voronoi
// partition (Definition 1), offering each the sensors the map's sensor
// index finds within rc. Placements only raise counts, so no other
// point can become a candidate during the run, and a sensor owning none
// of these points never decides. The nodes are the run-start owners
// ascending by id, then each new sensor as placed: the decision order.
func newVoronoiCells(m *coverage.Map, rc float64) *partition.LocalVoronoi {
	cells := partition.NewLocalVoronoi(m.NumPoints(), m.NumDeficient(), rc)
	for t := 0; t < m.NumTiles(); t++ {
		if m.DeficientInTile(t) == 0 {
			continue
		}
		for _, i := range m.TilePoints(t) {
			if m.Count(int(i)) >= m.K() {
				continue
			}
			q := m.Point(int(i))
			cells.Track(int(i))
			m.VisitSensorsInBall(q, rc, func(id int, p geom.Point) bool {
				cells.Candidate(int(i), id, p.Dist2(q))
				return true
			})
		}
	}
	cells.Link(func(id int) geom.Point {
		p, _ := m.SensorPos(id)
		return p
	})
	return cells
}

// addVoronoiNode registers sensor id, placed at p, as the newest node
// of cells and offers it every point of m within rc, through the map's
// point index.
func addVoronoiNode(m *coverage.Map, cells *partition.LocalVoronoi, rc float64, id int, p geom.Point) {
	n := cells.AddNode(id, p)
	m.VisitPointsInBall(p, rc, func(i int, q geom.Point) bool {
		cells.Offer(i, n, p.Dist2(q))
		return true
	})
}

// voronoiPlacement is one node decision within a round.
type voronoiPlacement struct {
	node  int // node index in the local Voronoi partition, -1 = base-station seed
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

	cells := newVoronoiCells(m, v.Rc)
	cache := newBenefitCache(m, newRs, nil, 0)
	defer cache.flush()

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
		for n := 0; n < cells.NumNodes(); n++ {
			if v.Sequential && len(decided) > 0 {
				break
			}
			if cells.First(n) < 0 {
				continue
			}
			_, pos := cells.Node(n)
			if idx, ok := cache.bestOwned(pos, v.Rc, cells, n); ok {
				decided = append(decided, voronoiPlacement{node: n, ptIdx: idx})
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
			decided = append(decided, voronoiPlacement{node: -1, ptIdx: u})
			res.Seeded++
		}
		// Apply placements at the end of the round; ownership and
		// coverage notifications propagate before the next round.
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			if d.node >= 0 {
				// The placing node announces the new sensor to its 1-hop
				// neighborhood: one message per communication neighbor,
				// plus one to initialize the new node (the count below
				// includes the placing node itself). Message cost is
				// therefore proportional to rc, as in Fig. 10.
				ownerID, ownerPos := cells.Node(d.node)
				n := m.CountSensorsInBall(ownerPos, v.Rc)
				res.Messages += n
				res.NodeMessages[ownerID] += n
			}
			id := nextID
			nextID++
			pos := m.Point(d.ptIdx)
			cache.applyPlacement(d.ptIdx)
			if newRs == m.Rs() {
				m.AddSensorAtPoint(id, d.ptIdx)
			} else {
				m.AddSensorRadius(id, pos, newRs)
			}
			addVoronoiNode(m, cells, v.Rc, id, pos)
			res.Placed = append(res.Placed, Placement{ID: id, Pos: pos, Round: round})
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
