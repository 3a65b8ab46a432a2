package decor

import (
	"fmt"

	"decor/internal/geom"
	"decor/internal/rng"
	"decor/internal/snap"
)

// Deployment snapshots: a versioned binary capture of a live field —
// parameters, sensors (with per-sensor radii) and the exact RNG state —
// such that RestoreDeployment yields a field observably identical to the
// original: equal operation sequences on both produce equal results,
// including every future random draw. A session's sealed record carries
// these bytes, so a session is its field, not its history: restore
// reads the record back and a damaged one is an error. Replaying the
// session's spec and events from genesis is the tests' oracle only.

// Snapshot serializes the deployment to the snap envelope format.
func (d *Deployment) Snapshot() []byte {
	w := snap.NewWriter()
	p := d.params
	w.F64(p.FieldSide)
	w.Int(p.K)
	w.F64(p.Rs)
	w.F64(p.Rc)
	w.Int(p.NumPoints)
	w.Str(p.Generator)
	w.U64(p.Seed)

	hi, lo := d.r.State()
	w.U64(hi)
	w.U64(lo)

	w.Int(d.m.NumSensors())
	d.m.VisitSensors(func(id int, pos geom.Point, rs float64) {
		w.Int(id)
		w.F64(pos.X)
		w.F64(pos.Y)
		w.F64(rs)
	})
	return w.Seal()
}

// RestoreDeployment reconstructs a deployment from Snapshot bytes. Any
// corruption, truncation or version mismatch is reported as a typed
// snap error; a successful restore is complete, never partial.
func RestoreDeployment(data []byte) (*Deployment, error) {
	r, err := snap.Open(data)
	if err != nil {
		return nil, err
	}
	var p Params
	p.FieldSide = r.F64()
	p.K = r.Int()
	p.Rs = r.F64()
	p.Rc = r.F64()
	p.NumPoints = r.Int()
	p.Generator = r.Str()
	p.Seed = r.U64()
	hi := r.U64()
	lo := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}

	d, err := NewDeployment(p)
	if err != nil {
		return nil, fmt.Errorf("%w: params: %v", snap.ErrMalformed, err)
	}
	// Continue the original's stream mid-draw rather than restarting it.
	d.r = rng.FromState(hi, lo)

	for n := r.CollectionLen(); n > 0; n-- {
		id := r.Int()
		pos := geom.Point{X: r.F64(), Y: r.F64()}
		rs := r.F64()
		if r.Err() != nil {
			break
		}
		if id < 0 || rs <= 0 {
			return nil, fmt.Errorf("%w: sensor %d radius %v", snap.ErrMalformed, id, rs)
		}
		if _, ok := d.m.SensorPos(id); ok {
			return nil, fmt.Errorf("%w: duplicate sensor id %d", snap.ErrMalformed, id)
		}
		d.m.AddSensorRadius(id, pos, rs)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return d, nil
}
