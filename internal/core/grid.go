package core

import (
	"fmt"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/obs"
	"decor/internal/partition"
	"decor/internal/rng"
)

// GridDECOR is the paper's grid-based DECOR variant (§3.1): the field is
// partitioned into fixed CellSize × CellSize cells, each occupied cell
// elects a leader (rotated every round to spread energy), and leaders run
// the greedy benefit placement over their own cell's sample points.
// Leaders whose cell is fully covered adopt empty deficient neighboring
// cells, seeding a sensor there that becomes the new cell's first member
// — the paper's rule "the leader of a neighboring cell will place a new
// leader in the uncovered cell".
//
// The paper evaluates CellSize 5 ("small cell", one sensor nearly covers
// a whole cell when rs = 4) and 10 ("big cell").
type GridDECOR struct {
	CellSize float64
	// Sequential serializes the distributed execution: only one leader
	// places per round, so every decision sees fully propagated state.
	// This is the concurrency ablation from DESIGN.md §5 — it bounds how
	// much of DECOR's overhead vs the centralized greedy is coordination
	// cost (same-round races) rather than knowledge locality.
	Sequential bool
	// NewRs overrides the sensing radius of newly placed sensors
	// (0 = the map default), the paper's heterogeneous setting.
	NewRs float64
}

// Name implements Method.
func (g GridDECOR) Name() string {
	if g.CellSize <= 5 {
		return "grid-small"
	}
	return "grid-big"
}

// gridState carries per-run bookkeeping for the grid scheme.
type gridState struct {
	m     *coverage.Map
	part  *partition.Grid
	cells [][]int // cell -> sample point indices (ascending)
	// members lists each cell's sensor IDs in arrival order, indexed
	// densely by cell (the cell count is fixed for a run); a cell is
	// occupied when its list is non-empty.
	members [][]int
	// nbrs precomputes every cell's Moore neighborhood.
	nbrs [][]int
	// cellOf maps sample point index -> containing cell.
	cellOf []int
}

// newGridState partitions m into cells of the given size, registers the
// existing sensors, and accounts the initial position exchange: each
// occupied cell's leader advertises its sensors to occupied Moore
// neighbors (one message each).
func newGridState(m *coverage.Map, cellSize float64, res *Result) *gridState {
	st := &gridState{
		m:    m,
		part: partition.NewGrid(m.Field(), cellSize),
	}
	st.members = make([][]int, st.part.NumCells())
	pts := make([]geom.Point, m.NumPoints())
	for i := range pts {
		pts[i] = m.Point(i)
	}
	st.cells = st.part.AssignPoints(pts)
	st.cellOf = make([]int, len(pts))
	for c, idxs := range st.cells {
		for _, i := range idxs {
			st.cellOf[i] = c
		}
	}
	st.nbrs = make([][]int, st.part.NumCells())
	for c := range st.nbrs {
		st.nbrs[c] = st.part.Neighbors(c)
	}
	res.Cells = st.part.NumCells()
	for _, id := range m.SensorIDs() {
		p, _ := m.SensorPos(id)
		c := st.part.CellIndex(p)
		st.members[c] = append(st.members[c], id)
	}
	for c, mem := range st.members {
		if len(mem) == 0 {
			continue
		}
		leader := mem[0]
		for _, nc := range st.nbrs[c] {
			if len(st.members[nc]) > 0 {
				res.Messages++
				res.NodeMessages[leader]++
			}
		}
	}
	return st
}

// gridPlacement is one leader decision within a round.
type gridPlacement struct {
	leader int
	cell   int
	pos    geom.Point
	ptIdx  int
}

// commit deploys sensor id for decision d with radius newRs and accounts
// its messages: one per occupied neighboring cell whose area the new
// sensor's disk overlaps (§3.3 border exchange), plus one to the adopted
// cell's new sensor if placed remotely. Base-station seeds (leader < 0)
// send none.
func (st *gridState) commit(d gridPlacement, id int, newRs float64, round int, res *Result) {
	m := st.m
	if newRs == m.Rs() {
		m.AddSensorAtPoint(id, d.ptIdx)
	} else {
		m.AddSensorRadius(id, d.pos, newRs)
	}
	st.members[d.cell] = append(st.members[d.cell], id)
	res.Placed = append(res.Placed, Placement{ID: id, Pos: d.pos, Round: round})
	if d.leader < 0 {
		return
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
	if p, _ := m.SensorPos(d.leader); d.cell != st.part.CellIndex(p) {
		res.Messages++ // instruct the remote cell's new leader
		res.NodeMessages[d.leader]++
	}
}

// Deploy implements Method.
func (g GridDECOR) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	if g.CellSize <= 0 {
		panic("core: GridDECOR requires a positive cell size")
	}
	newRs := g.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	res := Result{Method: g.Name(), NodeMessages: map[int]int{}}
	tctx, depSpan := obs.StartSpanCtx(opt.Ctx, "core.deploy")
	st := newGridState(m, g.CellSize, &res)
	cache := newBenefitCache(m, newRs, st.cellOf, len(st.cells))
	defer cache.flush()

	nextID := nextSensorID(m)
	var decided []gridPlacement
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
		evalSpan := obs.StartSpan(obs.CoreBenefitEvalSeconds)
		decided = g.decide(st, cache, round, decided[:0])
		evalSpan.End()
		if len(decided) == 0 {
			// No leader can reach the remaining deficient points: the
			// base station seeds the lowest deficient sample point (the
			// paper's regular-positioning fallback for empty regions).
			u := m.LowestDeficient()
			if u < 0 {
				roundSpan.End()
				trSpan.End()
				break
			}
			decided = append(decided, gridPlacement{leader: -1, cell: st.cellOf[u], pos: m.Point(u), ptIdx: u})
			res.Seeded++
		}
		// Apply all of this round's placements; notifications go out
		// between rounds (the next round's decisions see them).
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			cache.applyPlacement(d.ptIdx)
			st.commit(d, nextID, newRs, round, &res)
			nextID++
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
	return res
}

// decide collects one round's leader decisions from the benefit cache.
// Every decision reads round-start state: placements are applied only
// after all leaders have decided.
func (g GridDECOR) decide(st *gridState, cache *benefitCache, round int, decided []gridPlacement) []gridPlacement {
	for c, mem := range st.members {
		if g.Sequential && len(decided) > 0 {
			break
		}
		if len(mem) == 0 {
			continue
		}
		leader := mem[round%len(mem)]
		// Own cell first.
		if idx, ok := cache.bestInCell(c, st.cells[c]); ok {
			decided = append(decided, gridPlacement{leader, c, st.m.Point(idx), idx})
			continue
		}
		// Own cell covered: adopt the first empty deficient neighbor.
		for _, nc := range st.nbrs[c] {
			if len(st.members[nc]) > 0 {
				continue
			}
			if idx, ok := cache.bestInCell(nc, st.cells[nc]); ok {
				decided = append(decided, gridPlacement{leader, nc, st.m.Point(idx), idx})
				break
			}
		}
	}
	return decided
}
