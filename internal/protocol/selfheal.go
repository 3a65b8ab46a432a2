package protocol

import (
	"sort"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/sim"
)

// Self-healing monitored field: the paper's §3.2 story end to end.
// Sensors heartbeat with period Tc; cell leaders watch their members and
// the coverage state; when failures kill coverage ("Once a node stops
// receiving such messages from one of its neighbors, this indicates that
// the neighbor has failed"), the affected leaders detect the deficits
// and re-run the greedy placement — no external orchestration, no
// synchronized rounds.

const (
	timerHeal   = "heal"
	timerBeat   = "beat"
	monitorBase = 1 << 22
)

// MonitoredField wires a deployed coverage map into a self-healing
// protocol instance.
type MonitoredField struct {
	M   *coverage.Map
	Eng *sim.Engine
	// Tc is the heartbeat/meta-information period; TimeoutMult beats of
	// silence mark a sensor failed.
	Tc          sim.Time
	TimeoutMult int
	// CellSize partitions responsibility as in grid DECOR.
	CellSize float64

	monitors map[int]*CellMonitor
	nextID   int
	// Repairs records every replacement sensor with its placement time.
	Repairs []RepairRecord
	// countsBuf is the reusable coverage-snapshot scratch for repair
	// surveys (coverage.Map.CountsInto), so heal timers allocate nothing.
	countsBuf []int
}

// RepairRecord is one autonomous replacement.
type RepairRecord struct {
	Time sim.Time
	ID   int
	Pos  geom.Point
	Cell int
}

// NewMonitoredField attaches the protocol to an already-deployed map.
func NewMonitoredField(m *coverage.Map, eng *sim.Engine, cellSize float64, tc sim.Time, timeoutMult int) *MonitoredField {
	if tc <= 0 || timeoutMult < 2 {
		panic("protocol: invalid heartbeat parameters")
	}
	if cellSize <= 0 {
		panic("protocol: invalid cell size")
	}
	f := &MonitoredField{
		M: m, Eng: eng, Tc: tc, TimeoutMult: timeoutMult, CellSize: cellSize,
		monitors: map[int]*CellMonitor{},
	}
	for _, id := range m.SensorIDs() {
		if id >= f.nextID {
			f.nextID = id + 1
		}
	}
	return f
}

// Start spawns one monitor per cell of the partition — occupied or not,
// since a neighboring cell's sensor death can expose deficits in a cell
// that never hosted a sensor. (Each monitor stands for the cell's
// current rotation leader, or the neighboring leader responsible for an
// empty cell, per §3.2.)
func (f *MonitoredField) Start() {
	field := f.M.Field()
	cols := int(field.W()/f.CellSize) + 1
	rows := int(field.H()/f.CellSize) + 1
	for c := 0; c < cols*rows; c++ {
		f.spawnMonitor(c)
	}
}

// CellOf returns the partition cell index of a position — the cell whose
// monitor (see MonitorActor) is responsible for it.
func (f *MonitoredField) CellOf(p geom.Point) int { return f.cellOf(p) }

func (f *MonitoredField) cellOf(p geom.Point) int {
	field := f.M.Field()
	cols := int(field.W()/f.CellSize) + 1
	cx := int((p.X - field.Min.X) / f.CellSize)
	cy := int((p.Y - field.Min.Y) / f.CellSize)
	return cy*cols + cx
}

func (f *MonitoredField) spawnMonitor(cell int) {
	mon := &CellMonitor{field: f, cell: cell}
	f.monitors[cell] = mon
	f.Eng.Register(monitorBase+cell, mon)
}

// Fail kills a sensor at the current virtual time: it stops
// heartbeating. Coverage bookkeeping is updated when a monitor DETECTS
// the silence, not here — the field genuinely has stale knowledge in
// between (the paper's detection-latency window).
func (f *MonitoredField) Fail(id int) {
	if mon := f.monitorFor(id); mon != nil {
		mon.markFailed(id)
	}
}

func (f *MonitoredField) monitorFor(id int) *CellMonitor {
	p, ok := f.M.SensorPos(id)
	if !ok {
		return nil
	}
	return f.monitors[f.cellOf(p)]
}

// member is one heartbeat-ledger entry: the monitor's last-heard time for
// a sensor plus the ground-truth silence flag Fail sets.
type member struct {
	id     int
	last   sim.Time
	failed bool
}

// CellMonitor watches one cell: heartbeat ledger for its sensors plus
// deficit-driven healing. The ledger is a flat slice sorted by sensor ID
// (the former failed/lastBeat map pair): beat rounds iterate it in place
// — already in the deterministic ascending order the detection sweep
// needs — and allocate nothing.
type CellMonitor struct {
	field   *MonitoredField
	cell    int
	members []member // ascending by id
	pts     []int
}

// markFailed flags a member silent (ground truth; detection happens on a
// later beat). Unknown IDs are ignored, as the map-based ledger did.
func (c *CellMonitor) markFailed(id int) {
	i := sort.Search(len(c.members), func(i int) bool { return c.members[i].id >= id })
	if i < len(c.members) && c.members[i].id == id {
		c.members[i].failed = true
	}
}

// OnStart implements sim.Actor. It may run more than once (chaos
// crash/restart revives an actor through a fresh OnStart), so it rebuilds
// the monitor's ledger from scratch rather than accumulating. Knowledge
// of already-failed-but-undetected members is genuinely lost across a
// monitor crash — they re-enter the ledger as live and fall silent again.
func (c *CellMonitor) OnStart(ctx *sim.Context) {
	f := c.field
	c.members = c.members[:0]
	c.pts = c.pts[:0]
	for i := 0; i < f.M.NumPoints(); i++ {
		if f.cellOf(f.M.Point(i)) == c.cell {
			c.pts = append(c.pts, i)
		}
	}
	now := ctx.Now()
	f.M.VisitSensors(func(id int, p geom.Point, _ float64) {
		if f.cellOf(p) == c.cell {
			c.members = append(c.members, member{id: id, last: now})
		}
	})
	phase := sim.Time(float64(c.cell%13)/13.0) * f.Tc
	ctx.SetTimer(phase, timerBeat)
}

// OnMessage implements sim.Actor (monitors are timer-driven).
func (c *CellMonitor) OnMessage(*sim.Context, sim.Message) {}

// OnTimer implements sim.Actor.
func (c *CellMonitor) OnTimer(ctx *sim.Context, tag string) {
	f := c.field
	switch tag {
	case timerBeat:
		now := ctx.Now()
		// Heartbeat round: live members refresh their entry; dead ones
		// stay silent.
		for i := range c.members {
			if !c.members[i].failed {
				c.members[i].last = now
			}
		}
		// Detection: members silent past the timeout are declared dead
		// and removed from the coverage state (in ascending ID order),
		// exposing deficits. Compacting in place keeps the slice sorted.
		timeout := f.Tc * sim.Time(f.TimeoutMult)
		kept := c.members[:0]
		for _, mb := range c.members {
			if mb.failed && now-mb.last > timeout {
				f.M.RemoveSensor(mb.id)
				continue
			}
			kept = append(kept, mb)
		}
		c.members = kept
		// Deficit poll: neighbors' failures can expose holes in this
		// cell without any member of this cell dying, so the heal check
		// cannot key off own-member detection alone.
		if _, ok := c.bestDeficient(); ok {
			ctx.SetTimer(0, timerHeal)
		}
		ctx.SetTimer(f.Tc, timerBeat)
	case timerHeal:
		// Greedy replacement, one sensor per heal tick, until the cell's
		// points are whole again. Repair IDs are strictly increasing, so
		// appending keeps the ledger sorted.
		if idx, ok := c.bestDeficient(); ok {
			pos := f.M.Point(idx)
			id := f.nextID
			f.nextID++
			f.M.AddSensor(id, pos)
			c.members = append(c.members, member{id: id, last: ctx.Now()})
			f.Repairs = append(f.Repairs, RepairRecord{Time: ctx.Now(), ID: id, Pos: pos, Cell: c.cell})
			ctx.SetTimer(f.Tc/4, timerHeal)
		}
	}
}

func (c *CellMonitor) bestDeficient() (int, bool) {
	f := c.field
	// One consistent snapshot per survey through the shared scratch
	// buffer — no per-survey allocation.
	f.countsBuf = f.M.CountsInto(f.countsBuf)
	snap := f.countsBuf
	bestIdx, best := -1, 0
	for _, i := range c.pts {
		if snap[i] >= f.M.K() {
			continue
		}
		if b := f.M.Benefit(f.M.Point(i)); b > best {
			best, bestIdx = b, i
		}
	}
	return bestIdx, bestIdx >= 0
}
