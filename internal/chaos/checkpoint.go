package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"decor/internal/sim"
	"decor/internal/snap"
)

// Checkpoint/resume for chaos runs. A run is a pure function of its
// scenario, so a checkpoint is the scenario and its cut: a sealed snap
// record of the scenario JSON, the virtual-time boundary, and the
// trace's line count and SHA-256 digest there. Resume runs the scenario
// from the start through the same drive loop, emits nothing up to the
// cut, and refuses with a typed snap error when the trace there differs
// from the record (a record written by another build, or altered);
// past the cut it continues, and checkpoints, as the original did. The
// parity suite (checkpoint_test.go) compares whole verdicts, timeline
// included; the fuzz suite proves damaged records are refused with
// typed errors, never a panic.

// CheckpointFunc receives each checkpoint: the virtual-time boundary it
// represents and the sealed record.
type CheckpointFunc func(at sim.Time, snapshot []byte)

// RunCheckpointed is Run, additionally emitting a checkpoint every
// `every` virtual seconds (none if every <= 0 or fn is nil). The run's
// verdict — including the trace hash — is identical to Run's:
// checkpoints are taken between events, never by slicing the clock in a
// way the straight run would not.
func RunCheckpointed(sc Scenario, every sim.Time, fn CheckpointFunc) Verdict {
	sc = sc.withDefaults()
	var ck *ckpt
	if every > 0 && fn != nil {
		ck = newCkpt(sc, every, fn)
		ck.next = every
	}
	v, err := dispatch(sc, ck)
	if err != nil {
		// Unreachable: only a resumed run checks a cut.
		panic(fmt.Sprintf("chaos: %v", err))
	}
	return v
}

// Resume re-runs a checkpointed run from its record, emitting further
// checkpoints every `every` virtual seconds past the cut (none if
// <= 0). The resumed run's verdict equals the uninterrupted run's.
// Corrupt, truncated or version-skewed records, and records whose trace
// at the cut differs from this build's, are rejected with a typed snap
// error.
func Resume(data []byte, every sim.Time, fn CheckpointFunc) (Verdict, error) {
	r, err := snap.Open(data)
	if err != nil {
		return Verdict{}, err
	}
	js := r.Bytes()
	c := cut{at: sim.Time(r.F64()), lines: r.Int(), digest: r.Bytes()}
	if err := r.Close(); err != nil {
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
	if !(c.at > 0) || c.lines < 0 || len(c.digest) != sha256.Size {
		return Verdict{}, fmt.Errorf("%w: cut at t=%v after %d lines, %d-byte digest",
			snap.ErrMalformed, c.at, c.lines, len(c.digest))
	}
	ck := newCkpt(sc, every, fn)
	ck.next, ck.resume = c.at, &c
	v, err := dispatch(sc, ck)
	if err == nil && ck.resume != nil {
		err = fmt.Errorf("%w: the run ended at t=%v, before the cut at t=%v",
			snap.ErrMalformed, v.FinalTime, c.at)
	}
	if err != nil {
		return Verdict{}, err
	}
	return v, nil
}

func dispatch(sc Scenario, ck *ckpt) (Verdict, error) {
	switch sc.Arch {
	case ArchGrid, ArchVoronoi:
		return runDeploy(sc, ck)
	case ArchSelfheal:
		return runSelfheal(sc, ck)
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

// cut is a record's boundary and the trace a run had there.
type cut struct {
	at     sim.Time
	lines  int
	digest []byte
}

// ckpt drives an engine toward a time bound, stopping at every-multiples
// of virtual time to seal a checkpoint; a resumed run's first stop is
// its record's cut, where the trace is checked instead. A nil *ckpt is
// plain Engine.Run.
type ckpt struct {
	scenario []byte // the scenario's JSON, the head of every record
	every    sim.Time
	next     sim.Time
	fn       CheckpointFunc
	resume   *cut // the cut a resumed run has yet to pass
}

func newCkpt(sc Scenario, every sim.Time, fn CheckpointFunc) *ckpt {
	js, err := json.Marshal(sc)
	if err != nil {
		panic(fmt.Sprintf("chaos: scenario marshal: %v", err))
	}
	return &ckpt{scenario: js, every: every, fn: fn}
}

// drive is Engine.Run(until) with checkpoint boundaries. It advances in
// head-event steps — Run(at) with at equal to the queue head's time
// never triggers Run's empty-queue clock jump, so the processed event
// sequence (and hence the trace) is exactly the straight run's; the
// final Run(until) reproduces the straight run's end-of-queue clock
// semantics, including the jump to a finite horizon. A boundary is
// passed at the first head event beyond it, in whichever drive call
// that is, so a resumed run meets its cut at the very event the
// original sealed it.
func (c *ckpt) drive(eng *sim.Engine, tr *trace, until sim.Time) error {
	if c == nil {
		eng.Run(until)
		return nil
	}
	for {
		at, ok := eng.NextEventTime()
		if !ok || at > until {
			break
		}
		if at > c.next {
			if err := c.stop(tr); err != nil {
				return err
			}
			continue
		}
		eng.Run(at)
	}
	eng.Run(until)
	return nil
}

// stop passes the boundary at c.next: a resumed run checks its trace
// against the record there, then aligns to the first every-multiple
// past the cut (none without a checkpoint period); any other boundary
// seals a checkpoint.
func (c *ckpt) stop(tr *trace) error {
	if cu := c.resume; cu != nil {
		if sum := tr.h.Sum(nil); tr.lines != cu.lines || !bytes.Equal(sum, cu.digest) {
			return fmt.Errorf("%w: trace at the cut t=%v is %d lines, digest %x; the checkpoint holds %d lines, digest %x",
				snap.ErrMalformed, cu.at, tr.lines, sum, cu.lines, cu.digest)
		}
		c.resume = nil
		if c.every <= 0 || c.fn == nil {
			c.next = sim.Inf
			return nil
		}
		for c.next = c.every; c.next <= cu.at; c.next += c.every {
		}
		return nil
	}
	w := snap.NewWriter()
	w.Bytes(c.scenario)
	w.F64(float64(c.next))
	w.Int(tr.lines)
	w.Bytes(tr.h.Sum(nil))
	c.fn(c.next, w.Seal())
	c.next += c.every
	return nil
}
