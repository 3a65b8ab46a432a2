package protocol

import (
	"sort"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/partition"
	"decor/internal/sim"
)

// This file implements the event-driven form of grid-based DECOR: cell
// leaders as sim actors that wake on their own (unsynchronized) timers,
// place sensors based on their current local knowledge, and learn about
// neighboring placements only after message latency. It is the
// asynchronous counterpart of internal/core's round-based model: the
// round model batches staleness into synchronized rounds, this one
// exposes it at message granularity. The integration tests compare the
// two.

const (
	timerPlace = "place"
	// leaderActorBase offsets leader actor IDs away from sensor IDs.
	leaderActorBase = 1 << 20
)

// World is the shared ground truth of an event-driven DECOR run: the
// coverage map (physical reality — which sensors exist where) plus the
// bookkeeping to spawn leaders for newly occupied cells. Actors mutate
// it only from within engine callbacks, so no locking is needed.
type World struct {
	M    *coverage.Map
	Part *partition.Grid
	Eng  *sim.Engine

	// Period is the leader wake-up interval; leaders de-phase by cell
	// index so they never act in lockstep.
	Period sim.Time

	nextSensor int
	leaders    map[int]*CellLeader // by cell
	// PlacementLog records every sensor placed, in placement order.
	PlacementLog []PlacementPayload
	// MessagesSent counts placement notifications (engine stats count
	// everything; this isolates the DECOR protocol traffic).
	MessagesSent int

	// countsBuf is the reusable coverage-snapshot scratch for ground-truth
	// surveys (coverage.Map.CountsInto), so they allocate nothing.
	countsBuf []int
}

// NewWorld prepares an event-driven run over an existing coverage map.
func NewWorld(m *coverage.Map, cellSize float64, eng *sim.Engine, period sim.Time) *World {
	if period <= 0 {
		panic("protocol: period must be positive")
	}
	w := &World{
		M:       m,
		Part:    partition.NewGrid(m.Field(), cellSize),
		Eng:     eng,
		Period:  period,
		leaders: map[int]*CellLeader{},
	}
	w.nextSensor = 0
	for _, id := range m.SensorIDs() {
		if id >= w.nextSensor {
			w.nextSensor = id + 1
		}
	}
	return w
}

// Start spawns a leader for every currently occupied cell.
func (w *World) Start() {
	occupied := map[int]bool{}
	for _, id := range w.M.SensorIDs() {
		p, _ := w.M.SensorPos(id)
		occupied[w.Part.CellIndex(p)] = true
	}
	cells := make([]int, 0, len(occupied))
	for c := range occupied {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	for _, c := range cells {
		w.spawnLeader(c)
	}
}

// Seed drops a base-station sensor at the lowest-index deficient sample
// point (used by the driver when no leader can reach the remaining
// uncovered region) and spawns a leader for its cell. It reports whether
// anything was seeded.
func (w *World) Seed() bool {
	unc := w.M.UncoveredPoints()
	if len(unc) == 0 {
		return false
	}
	pos := w.M.Point(unc[0])
	id := w.placeSensor(pos)
	cell := w.Part.CellIndex(pos)
	// The base station informs every leader whose cell the new sensor
	// reaches (out of band — it is not a cell leader itself).
	for _, nc := range append(w.Part.Neighbors(cell), cell) {
		if l := w.leaders[nc]; l != nil {
			l.observe(id, pos)
		}
	}
	if w.leaders[cell] == nil {
		w.spawnLeader(cell)
	}
	return true
}

func (w *World) spawnLeader(cell int) *CellLeader {
	l := &CellLeader{world: w, cell: cell}
	w.leaders[cell] = l
	w.Eng.Register(leaderActorBase+cell, l)
	return l
}

// placeSensor actuates a new sensor in the physical world.
func (w *World) placeSensor(pos geom.Point) int {
	id := w.nextSensor
	w.nextSensor++
	w.M.AddSensor(id, pos)
	w.PlacementLog = append(w.PlacementLog, PlacementPayload{NewID: id, Pos: pos})
	return id
}

// CellLeader is the actor responsible for k-covering one grid cell. Its
// knowledge of its own cell's coverage comes from (a) the sensors it
// observed in its cell at spawn time, (b) its own placements, and (c)
// placement notifications from neighboring leaders — each applied only
// when the message arrives, so concurrent placements are invisible for
// one message latency, exactly the §3.3 consistency model.
type CellLeader struct {
	world *World
	cell  int
	// counts is the leader's belief about its own cell points' coverage,
	// indexed by global point index (flat slice, not a map: belief
	// updates on every observed placement allocate nothing). own is the
	// matching membership mask.
	counts []int
	pts    []int  // own cell sample-point indices
	own    []bool // membership mask over all points
	done   bool
	// Placed counts sensors this leader deployed.
	Placed int
}

// OnStart implements sim.Actor. It may run more than once (chaos
// crash/restart revives an actor through a fresh OnStart), so it rebuilds
// the leader's belief from scratch rather than accumulating.
func (l *CellLeader) OnStart(ctx *sim.Context) {
	w := l.world
	np := w.M.NumPoints()
	if cap(l.counts) < np {
		l.counts = make([]int, np)
		l.own = make([]bool, np)
	}
	l.counts = l.counts[:np]
	l.own = l.own[:np]
	for i := range l.counts {
		l.counts[i] = 0
		l.own[i] = false
	}
	l.pts = l.pts[:0]
	for i := 0; i < np; i++ {
		if w.Part.CellIndex(w.M.Point(i)) == l.cell {
			l.pts = append(l.pts, i)
			l.own[i] = true
		}
	}
	// Initial survey: the leader hears every sensor currently deployed
	// whose disk reaches its cell (the §3.3 initial position exchange).
	w.M.VisitSensors(func(id int, p geom.Point, _ float64) {
		l.observe(id, p)
	})
	// De-phase wake-ups by cell index.
	phase := sim.Time(float64(l.cell%29)/29.0) * w.Period
	ctx.SetTimer(phase, timerPlace)
}

// observe folds one sensor into the leader's belief.
func (l *CellLeader) observe(_ int, pos geom.Point) {
	w := l.world
	rs := w.M.Rs()
	for _, i := range l.pts {
		if w.M.Point(i).Dist2(pos) <= rs*rs {
			l.counts[i]++
		}
	}
}

// OnMessage implements sim.Actor: placement notifications update belief.
func (l *CellLeader) OnMessage(_ *sim.Context, msg sim.Message) {
	if msg.Kind != MsgPlacement {
		return
	}
	if pl, ok := msg.Payload.(PlacementPayload); ok {
		l.observe(pl.NewID, pl.Pos)
		obsPlacementsIn.Inc()
	}
}

// OnTimer implements sim.Actor: one placement attempt per wake-up.
func (l *CellLeader) OnTimer(ctx *sim.Context, tag string) {
	if tag != timerPlace || l.done {
		return
	}
	w := l.world
	if idx, ok := l.bestDeficient(); ok {
		pos := w.M.Point(idx)
		id := w.placeSensor(pos)
		l.observe(id, pos)
		l.Placed++
		l.notifyNeighbors(ctx, l.cell, PlacementPayload{NewID: id, Pos: pos})
		ctx.SetTimer(w.Period, timerPlace)
		return
	}
	// Own cell covered: adopt an empty deficient neighbor, spawning its
	// first sensor and leader. (The leader physically surveys the empty
	// cell before adopting — the paper's "place a new leader in the
	// uncovered cell" rule.)
	for _, nc := range w.Part.Neighbors(l.cell) {
		if w.leaders[nc] != nil {
			continue
		}
		if idx, ok := bestDeficientInCell(w, nc); ok {
			pos := w.M.Point(idx)
			id := w.placeSensor(pos)
			l.Placed++
			// The adopting leader sees its own placement directly (it
			// may spill back into its own cell).
			l.observe(id, pos)
			// Notify BEFORE spawning the new cell's leader: its spawn
			// survey will see this sensor in the world, so it must not
			// also receive the notification (double counting).
			l.notifyNeighbors(ctx, nc, PlacementPayload{NewID: id, Pos: pos})
			w.spawnLeader(nc)
			ctx.SetTimer(w.Period, timerPlace)
			return
		}
	}
	// Nothing left to do: stop waking up. A later neighbor placement
	// cannot create deficits (coverage only grows during deployment).
	l.done = true
}

// bestDeficient returns the own-cell deficient point with maximal
// benefit under the leader's belief.
func (l *CellLeader) bestDeficient() (int, bool) {
	w := l.world
	k := w.M.K()
	bestIdx, best := -1, 0
	for _, i := range l.pts {
		if l.counts[i] >= k {
			continue
		}
		b := w.M.BenefitWith(w.M.Point(i), func(j int) int {
			if !l.own[j] {
				return -1 // outside the leader's knowledge
			}
			return l.counts[j]
		})
		if b > best {
			best, bestIdx = b, i
		}
	}
	return bestIdx, bestIdx >= 0
}

// bestDeficientInCell surveys a (leaderless) cell against ground truth.
func bestDeficientInCell(w *World, cell int) (int, bool) {
	// One consistent snapshot per survey through the shared scratch
	// buffer — no per-survey allocation.
	w.countsBuf = w.M.CountsInto(w.countsBuf)
	snap := w.countsBuf
	bestIdx, best := -1, 0
	for i := 0; i < w.M.NumPoints(); i++ {
		p := w.M.Point(i)
		if w.Part.CellIndex(p) != cell || snap[i] >= w.M.K() {
			continue
		}
		b := w.M.BenefitWith(p, func(j int) int {
			if w.Part.CellIndex(w.M.Point(j)) != cell {
				return -1
			}
			return snap[j]
		})
		if b > best {
			best, bestIdx = b, i
		}
	}
	return bestIdx, bestIdx >= 0
}

// notifyNeighbors sends the placement to every leader adjacent to the
// cell the sensor landed in whose cell the new sensor's disk overlaps —
// the exact message the paper's Fig. 10 counts. The sending leader's own
// cell is skipped (it observes its placements directly).
func (l *CellLeader) notifyNeighbors(ctx *sim.Context, placedCell int, pl PlacementPayload) {
	w := l.world
	obsPlacementsOut.Inc()
	disk := geom.Disk{Center: pl.Pos, R: w.M.Rs()}
	var boxed any = pl // one boxing for the whole notification fan-out
	for _, nc := range w.Part.Neighbors(placedCell) {
		if nc == l.cell || w.leaders[nc] == nil {
			continue
		}
		if disk.IntersectsRect(w.Part.CellRect(nc)) {
			ctx.Send(leaderActorBase+nc, MsgPlacement, boxed)
			w.MessagesSent++
		}
	}
}

// RunDeployment drives an event-driven DECOR run to completion: spawn
// leaders, process events, and seed unreachable regions whenever the
// engine goes idle with coverage still missing. It returns the number of
// base-station seeds.
func RunDeployment(w *World) int {
	w.Start()
	seeds := 0
	for !w.M.FullyCovered() {
		w.Eng.Run(sim.Inf)
		if w.M.FullyCovered() {
			break
		}
		if !w.Seed() {
			break
		}
		seeds++
	}
	return seeds
}
