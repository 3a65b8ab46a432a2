package protocol

import (
	"fmt"
	"sort"

	"decor/internal/geom"
	"decor/internal/sim"
	"decor/internal/snap"
)

// Protocol-layer snapshots. Each world serializes exactly the state a
// fresh OnStart could NOT rebuild: message-learned belief (leader count
// vectors, Voronoi knowledge ledgers, heartbeat ledgers) and protocol
// outputs (placement logs, repair records). Geometry-derived state (a
// leader's own point list, membership masks) is rebuilt from the
// restored coverage map, which the caller restores first. Restored
// actors are attached with Engine.RegisterRestored — no OnStart, their
// timers live in the restored event queue.
//
// The distinction matters for determinism: a leader's counts slice is
// its latency-limited belief about coverage. Rebuilding it through
// OnStart's ground-truth survey would hand the restored leader knowledge
// its original never had, and the runs would diverge.

// Queue-payload codecs. Codes are part of the snapshot format: never
// renumber, only append. The checkpointed worlds (World, VoronoiWorld,
// MonitoredField) queue only placements. Codes 1 and 3, the heartbeat
// payload and its pooled box, are retired: heartbeat Nodes never run
// checkpointed, so a queue holding one fails EncodeState with its
// "no payload codec" error.
func init() {
	sim.RegisterPayloadCodec(2, PlacementPayload{}, sim.PayloadCodec{
		Encode: func(w *snap.Writer, p any) { encodePlacement(w, p.(PlacementPayload)) },
		Decode: func(r *snap.Reader) any { return decodePlacement(r) },
	})
}

func encodePlacement(w *snap.Writer, p PlacementPayload) {
	w.Int(p.NewID)
	w.F64(p.Pos.X)
	w.F64(p.Pos.Y)
}

func decodePlacement(r *snap.Reader) PlacementPayload {
	var p PlacementPayload
	p.NewID = r.Int()
	p.Pos.X = r.F64()
	p.Pos.Y = r.F64()
	return p
}

func encodePlacementLog(w *snap.Writer, log []PlacementPayload) {
	w.Int(len(log))
	for _, pl := range log {
		encodePlacement(w, pl)
	}
}

func decodePlacementLog(r *snap.Reader) []PlacementPayload {
	var log []PlacementPayload
	for n := r.CollectionLen(); n > 0; n-- {
		log = append(log, decodePlacement(r))
	}
	return log
}

// EncodeState appends the grid world's protocol state to w.
func (w *World) EncodeState(sw *snap.Writer) {
	sw.Int(w.nextSensor)
	sw.Int(w.MessagesSent)
	encodePlacementLog(sw, w.PlacementLog)

	cells := make([]int, 0, len(w.leaders))
	for c := range w.leaders {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	sw.Int(len(cells))
	for _, c := range cells {
		l := w.leaders[c]
		sw.Int(c)
		sw.Bool(l.done)
		sw.Int(l.Placed)
		// The belief vector, full length: what this leader has heard, not
		// what the map knows.
		sw.Int(len(l.counts))
		for _, v := range l.counts {
			sw.Int(v)
		}
	}
}

// RestoreState rebuilds leaders on a world created by NewWorld over the
// restored coverage map, attaching them to the engine without OnStart.
func (w *World) RestoreState(sr *snap.Reader) error {
	w.nextSensor = sr.Int()
	w.MessagesSent = sr.Int()
	w.PlacementLog = decodePlacementLog(sr)

	np := w.M.NumPoints()
	for n := sr.CollectionLen(); n > 0; n-- {
		cell := sr.Int()
		l := &CellLeader{world: w, cell: cell}
		l.done = sr.Bool()
		l.Placed = sr.Int()
		nc := sr.CollectionLen()
		l.counts = make([]int, 0, nc)
		for i := 0; i < nc; i++ {
			l.counts = append(l.counts, sr.Int())
		}
		if sr.Err() != nil {
			return sr.Err()
		}
		if _, dup := w.leaders[cell]; dup {
			return fmt.Errorf("%w: duplicate leader cell %d", snap.ErrMalformed, cell)
		}
		if nc != np {
			return fmt.Errorf("%w: leader %d belief length %d over %d points", snap.ErrMalformed, cell, nc, np)
		}
		// Geometry-derived state, same construction as OnStart.
		l.own = make([]bool, np)
		for i := 0; i < np; i++ {
			if w.Part.CellIndex(w.M.Point(i)) == cell {
				l.pts = append(l.pts, i)
				l.own[i] = true
			}
		}
		w.leaders[cell] = l
		w.Eng.RegisterRestored(leaderActorBase+cell, l)
	}
	return sr.Err()
}

// EncodeState appends the Voronoi world's protocol state to w.
func (w *VoronoiWorld) EncodeState(sw *snap.Writer) {
	sw.Int(w.nextSensor)
	sw.Int(w.MessagesSent)
	encodePlacementLog(sw, w.PlacementLog)

	ids := make([]int, 0, len(w.nodes))
	for id := range w.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	sw.Int(len(ids))
	for _, id := range ids {
		n := w.nodes[id]
		sw.Int(id)
		sw.Bool(n.done)
		sw.Int(n.Placed)
		// The knowledge ledger: which sensors this node has HEARD of.
		sw.Int(len(n.known))
		for _, k := range n.known {
			sw.Int(k.id)
			sw.F64(k.pos.X)
			sw.F64(k.pos.Y)
		}
	}
}

// RestoreState rebuilds nodes on a world created by NewVoronoiWorld over
// the restored coverage map.
func (w *VoronoiWorld) RestoreState(sr *snap.Reader) error {
	w.nextSensor = sr.Int()
	w.MessagesSent = sr.Int()
	w.PlacementLog = decodePlacementLog(sr)

	for n := sr.CollectionLen(); n > 0; n-- {
		id := sr.Int()
		vn := &VoronoiNode{world: w, id: id}
		vn.done = sr.Bool()
		vn.Placed = sr.Int()
		nk := sr.CollectionLen()
		vn.known = make([]knownSensor, 0, nk)
		for i := 0; i < nk; i++ {
			var k knownSensor
			k.id = sr.Int()
			k.pos.X = sr.F64()
			k.pos.Y = sr.F64()
			vn.known = append(vn.known, k)
		}
		if sr.Err() != nil {
			return sr.Err()
		}
		if _, dup := w.nodes[id]; dup {
			return fmt.Errorf("%w: duplicate node id %d", snap.ErrMalformed, id)
		}
		vn.pos, _ = w.M.SensorPos(id)
		w.nodes[id] = vn
		w.Eng.RegisterRestored(sensorActorBase+id, vn)
	}
	return sr.Err()
}

// EncodeState appends the self-healing field's protocol state to w.
func (f *MonitoredField) EncodeState(sw *snap.Writer) {
	sw.Int(f.nextID)
	sw.Int(len(f.Repairs))
	for _, rec := range f.Repairs {
		sw.F64(float64(rec.Time))
		sw.Int(rec.ID)
		sw.F64(rec.Pos.X)
		sw.F64(rec.Pos.Y)
		sw.Int(rec.Cell)
	}

	cells := make([]int, 0, len(f.monitors))
	for c := range f.monitors {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	sw.Int(len(cells))
	for _, c := range cells {
		mon := f.monitors[c]
		sw.Int(c)
		// The heartbeat ledger: last-heard times and ground-truth silence
		// flags a fresh survey could not know.
		sw.Int(len(mon.members))
		for _, mb := range mon.members {
			sw.Int(mb.id)
			sw.F64(float64(mb.last))
			sw.Bool(mb.failed)
		}
	}
}

// RestoreState rebuilds monitors on a field created by NewMonitoredField
// over the restored coverage map.
func (f *MonitoredField) RestoreState(sr *snap.Reader) error {
	f.nextID = sr.Int()
	for n := sr.CollectionLen(); n > 0; n-- {
		var rec RepairRecord
		rec.Time = sim.Time(sr.F64())
		rec.ID = sr.Int()
		rec.Pos = geom.Point{X: sr.F64(), Y: sr.F64()}
		rec.Cell = sr.Int()
		f.Repairs = append(f.Repairs, rec)
	}

	for n := sr.CollectionLen(); n > 0; n-- {
		cell := sr.Int()
		mon := &CellMonitor{field: f, cell: cell}
		nm := sr.CollectionLen()
		mon.members = make([]member, 0, nm)
		for i := 0; i < nm; i++ {
			var mb member
			mb.id = sr.Int()
			mb.last = sim.Time(sr.F64())
			mb.failed = sr.Bool()
			mon.members = append(mon.members, mb)
		}
		if sr.Err() != nil {
			return sr.Err()
		}
		if _, dup := f.monitors[cell]; dup {
			return fmt.Errorf("%w: duplicate monitor cell %d", snap.ErrMalformed, cell)
		}
		for i := 0; i < f.M.NumPoints(); i++ {
			if f.cellOf(f.M.Point(i)) == cell {
				mon.pts = append(mon.pts, i)
			}
		}
		f.monitors[cell] = mon
		f.Eng.RegisterRestored(monitorBase+cell, mon)
	}
	return sr.Err()
}
