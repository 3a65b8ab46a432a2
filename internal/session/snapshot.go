package session

import (
	"fmt"

	"decor"
	"decor/internal/snap"
)

// snapshot seals the session into one record of its field: tenant, field
// ID, method, sequence number, the deployment's own snapshot (sensors
// and the RNG mid-stream), and the delta ring that SSE catch-up reads
// depend on, written field by field. No part of it grows with the number
// of events applied. The subscriber set is live-only and is not kept.
func (st *state) snapshot() []byte {
	w := snap.NewWriter()
	w.Str(st.tenant)
	w.Str(st.id)
	w.Str(st.method)
	w.U64(st.seq)
	w.Bytes(st.d.Snapshot())
	w.Int(len(st.ring))
	for i := range st.ring {
		d := &st.ring[i]
		w.U64(d.Seq)
		w.Str(d.Method)
		w.Int(len(d.Failed))
		for _, id := range d.Failed {
			w.Int(id)
		}
		w.Int(d.Placed)
		w.Int(len(d.Placements))
		for _, p := range d.Placements {
			w.F64(p.X)
			w.F64(p.Y)
		}
		w.Int(d.TotalSensors)
		w.Int(d.Messages)
		w.Int(d.Rounds)
		w.F64(d.CoverageK)
		w.Bool(d.Covered)
	}
	return w.Seal()
}

// restore rebuilds a session from its record. A record that does not
// open, read or restore is an error, never a partial session: a record
// never leaves the process that sealed it (DESIGN.md §15), so only a bug
// can damage one. Each ring delta reads back as deltaFrom made it:
// Failed nil when empty, Placements non-nil.
func restore(raw []byte) (*state, error) {
	r, err := snap.Open(raw)
	if err != nil {
		return nil, fmt.Errorf("session: restore: %w", err)
	}
	st := &state{
		tenant: r.Str(),
		id:     r.Str(),
		method: r.Str(),
		seq:    r.U64(),
		subs:   map[int]chan Delta{},
	}
	db := r.Bytes()
	for n := r.CollectionLen(); n > 0 && r.Err() == nil; n-- {
		d := Delta{FieldID: st.id, Seq: r.U64(), Method: r.Str()}
		if m := r.CollectionLen(); m > 0 {
			d.Failed = make([]int, m)
			for i := range d.Failed {
				d.Failed[i] = r.Int()
			}
		}
		d.Placed = r.Int()
		d.Placements = make([]Point, r.CollectionLen())
		for i := range d.Placements {
			d.Placements[i] = Point{X: r.F64(), Y: r.F64()}
		}
		d.TotalSensors = r.Int()
		d.Messages = r.Int()
		d.Rounds = r.Int()
		d.CoverageK = r.F64()
		d.Covered = r.Bool()
		st.ring = append(st.ring, d)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("session: restore: %w", err)
	}
	if st.d, err = decor.RestoreDeployment(db); err != nil {
		return nil, fmt.Errorf("session: restore deployment: %w", err)
	}
	return st, nil
}
