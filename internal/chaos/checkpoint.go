package chaos

import (
	"encoding"
	"encoding/json"
	"fmt"
	"hash"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/sim"
	"decor/internal/snap"
)

// Checkpoint/resume for chaos runs. A checkpoint is a sealed snap
// envelope capturing the complete run state at a virtual-time boundary —
// scenario, mid-stream trace-hash state, engine (clock, queue, RNGs,
// stats), coverage sensors, protocol world, saboteur and invariant
// checker — such that Resume continues the run with the SAME remaining
// event sequence, trace bytes and verdict as the uninterrupted original.
// The differential parity suite (checkpoint_test.go) proves byte
// equality against the golden replay hashes at randomized cut points;
// the fuzz suite proves corrupted envelopes are rejected with typed
// errors, never a panic.

// CheckpointFunc receives each checkpoint: the virtual-time boundary it
// represents and the sealed snapshot bytes. The callback must not retain
// the engine — the snapshot is self-contained.
type CheckpointFunc func(at sim.Time, snapshot []byte)

// RunCheckpointed is Run, additionally emitting a snapshot every `every`
// virtual seconds (no checkpoints if every <= 0 or fn is nil). The run's
// verdict — including the trace hash — is identical to Run's: snapshots
// are taken between events, never by slicing the clock in a way the
// straight run would not.
func RunCheckpointed(sc Scenario, every sim.Time, fn CheckpointFunc) Verdict {
	sc = sc.withDefaults()
	v, err := dispatch(sc, newCkpt(every, fn), nil)
	if err != nil {
		// Unreachable: fresh runs decode nothing.
		panic(fmt.Sprintf("chaos: %v", err))
	}
	return v
}

// Resume continues a checkpointed run from snapshot bytes, emitting
// further checkpoints every `every` virtual seconds (none if <= 0). The
// resumed run's verdict equals the uninterrupted run's. Corrupt,
// truncated or version-skewed snapshots are rejected with a typed
// snap error.
func Resume(data []byte, every sim.Time, fn CheckpointFunc) (Verdict, error) {
	r, err := snap.Open(data)
	if err != nil {
		return Verdict{}, err
	}
	js := r.Bytes()
	if err := r.Err(); err != nil {
		return Verdict{}, err
	}
	var sc Scenario
	if err := json.Unmarshal(js, &sc); err != nil {
		return Verdict{}, fmt.Errorf("%w: scenario: %v", snap.ErrMalformed, err)
	}
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return Verdict{}, fmt.Errorf("%w: scenario: %v", snap.ErrMalformed, err)
	}
	return dispatch(sc, newCkpt(every, fn), r)
}

func dispatch(sc Scenario, ck *ckpt, res *snap.Reader) (Verdict, error) {
	switch sc.Arch {
	case ArchGrid, ArchVoronoi:
		return runDeploy(sc, ck, res)
	case ArchSelfheal:
		return runSelfheal(sc, ck, res)
	default:
		panic(fmt.Sprintf("chaos: unknown architecture %q", sc.Arch))
	}
}

// validate guards the constructor panics a resumed scenario could
// otherwise trip (world geometry, protocol timers, the fault plan). Run
// keeps its panic-on-misuse contract for programmatic scenarios; decoded
// ones must fail softly.
func (sc Scenario) validate() error {
	switch sc.Arch {
	case ArchGrid, ArchVoronoi, ArchSelfheal:
	default:
		return fmt.Errorf("unknown architecture %q", sc.Arch)
	}
	if sc.Field <= 0 || sc.Points < 1 || sc.Points > 1<<20 || sc.K < 1 || sc.Rs <= 0 {
		return fmt.Errorf("invalid field geometry (field=%v points=%d k=%d rs=%v)",
			sc.Field, sc.Points, sc.K, sc.Rs)
	}
	if sc.Latency < 0 || sc.Loss < 0 || sc.Loss > 1 || sc.Period <= 0 {
		return fmt.Errorf("invalid timing (latency=%v loss=%v period=%v)",
			sc.Latency, sc.Loss, sc.Period)
	}
	if sc.CellSize <= 0 {
		return fmt.Errorf("invalid cell size %v", sc.CellSize)
	}
	if sc.Arch == ArchVoronoi && sc.Rc < sc.Rs {
		return fmt.Errorf("rc %v below rs %v", sc.Rc, sc.Rs)
	}
	if sc.Arch == ArchSelfheal &&
		(sc.Tc <= 0 || sc.TimeoutMult < 2 || sc.Horizon <= 0 || sc.Failures < 0) {
		return fmt.Errorf("invalid selfheal parameters (tc=%v mult=%d horizon=%v failures=%d)",
			sc.Tc, sc.TimeoutMult, sc.Horizon, sc.Failures)
	}
	return sc.Plan.Validate()
}

// ckpt drives an engine toward a time bound while emitting snapshots at
// every-multiples of virtual time. A nil *ckpt (or zero period) is plain
// Engine.Run.
type ckpt struct {
	every sim.Time
	next  sim.Time
	fn    CheckpointFunc
	snap  func() []byte // bound by the run once its world exists
}

func newCkpt(every sim.Time, fn CheckpointFunc) *ckpt {
	if every <= 0 || fn == nil {
		return nil
	}
	return &ckpt{every: every, next: every, fn: fn}
}

// alignAfter moves the next boundary past the (restored) clock so a
// resumed run does not re-emit its past checkpoints.
func (c *ckpt) alignAfter(now sim.Time) {
	if c == nil {
		return
	}
	for c.next <= now {
		c.next += c.every
	}
}

// drive is Engine.Run(until) with checkpoint boundaries. It advances in
// head-event steps — Run(at) with at equal to the queue head's time
// never triggers Run's empty-queue clock jump, so the processed event
// sequence (and hence the trace) is exactly the straight run's; the
// final Run(until) reproduces the straight run's end-of-queue clock
// semantics, including the jump to a finite horizon.
func (c *ckpt) drive(eng *sim.Engine, until sim.Time) {
	if c == nil {
		eng.Run(until)
		return
	}
	for {
		at, ok := eng.NextEventTime()
		if !ok || at > until {
			break
		}
		if at > c.next {
			c.fn(c.next, c.snap())
			c.next += c.every
			continue
		}
		eng.Run(at)
	}
	eng.Run(until)
}

// encodeCommon starts a snapshot with the sections every architecture
// shares: scenario, trace-hash state, engine, coverage sensors. It
// panics only on wiring errors (unregistered payload codec) — a
// checkpoint of a healthy run cannot fail.
func encodeCommon(sc Scenario, h hash.Hash, lines int, eng *sim.Engine, m *coverage.Map) *snap.Writer {
	w := snap.NewWriter()
	js, err := json.Marshal(sc)
	if err != nil {
		panic(fmt.Sprintf("chaos: scenario marshal: %v", err))
	}
	w.Bytes(js)
	hb, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("chaos: trace hash marshal: %v", err))
	}
	w.Bytes(hb)
	w.Int(lines)
	if err := eng.EncodeState(w); err != nil {
		panic(fmt.Sprintf("chaos: %v", err))
	}
	w.Int(m.NumSensors())
	m.VisitSensors(func(id int, p geom.Point, rs float64) {
		w.Int(id)
		w.F64(p.X)
		w.F64(p.Y)
		w.F64(rs)
	})
	return w
}

// restoreCommon decodes encodeCommon's sections onto the freshly built
// world: trace hash mid-state, line count, engine, sensors.
func restoreCommon(r *snap.Reader, h hash.Hash, lines *int, eng *sim.Engine, m *coverage.Map) error {
	hb := r.Bytes()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	um, ok := h.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("%w: trace hash does not support state restore", snap.ErrMalformed)
	}
	if err := um.UnmarshalBinary(hb); err != nil {
		return fmt.Errorf("%w: trace hash state: %v", snap.ErrMalformed, err)
	}
	*lines = n
	if err := eng.RestoreState(r); err != nil {
		return err
	}
	for cnt := r.CollectionLen(); cnt > 0; cnt-- {
		id := r.Int()
		p := geom.Point{X: r.F64(), Y: r.F64()}
		rs := r.F64()
		if err := r.Err(); err != nil {
			return err
		}
		if id < 0 || rs <= 0 {
			return fmt.Errorf("%w: sensor %d radius %v", snap.ErrMalformed, id, rs)
		}
		if _, exists := m.SensorPos(id); exists {
			return fmt.Errorf("%w: duplicate sensor id %d", snap.ErrMalformed, id)
		}
		m.AddSensorRadius(id, p, rs)
	}
	return r.Err()
}
