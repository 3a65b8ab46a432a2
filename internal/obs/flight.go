package obs

import (
	"fmt"
	"io"
	"sync"
)

// FlightEvent is one structured entry in the flight recorder: a sim
// engine event, a protocol message, an admission decision. T is
// domain-defined time — virtual seconds for a simulator's recorder, wall
// seconds since recorder start for the service's. Seq is the record
// order.
type FlightEvent struct {
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"`
	Kind   string  `json:"kind"`
	Actor  int     `json:"actor"`
	Detail string  `json:"detail,omitempty"`

	// Structured message fields recorded by RecordMsg on the hot path;
	// Dump materializes them into Detail lazily so recording never
	// formats (and never allocates). hasMsg distinguishes "structured,
	// not yet materialized" from a plain Record.
	msgKind  string
	from, to int
	dead     bool
	hasMsg   bool
}

func (e FlightEvent) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("#%d t=%.3f %s actor=%d", e.Seq, e.T, e.Kind, e.Actor)
	}
	return fmt.Sprintf("#%d t=%.3f %s actor=%d %s", e.Seq, e.T, e.Kind, e.Actor, e.Detail)
}

// FlightRecorder keeps the last events of a running system in fixed
// memory: one ring buffer that overwrites its oldest entries. Nothing is
// ever written out during normal operation — the recorder exists to be
// dumped when something goes wrong (an invariant fires, a 5xx is
// served, SIGQUIT arrives), turning "the run failed" into a readable
// event timeline. Writers share it through a short mutex: a chaos run's
// engine is its recorder's only writer, and the service's workers and
// admission path write two records per request. A nil *FlightRecorder
// is a valid no-op.
type FlightRecorder struct {
	mu   sync.Mutex
	seq  uint64
	evs  []FlightEvent
	next int
	n    int
}

// NewFlightRecorder creates a recorder holding the last capacity events
// (minimum 16). Memory is fixed for the recorder's lifetime.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 16 {
		capacity = 16
	}
	return &FlightRecorder{evs: make([]FlightEvent, capacity)}
}

// Record appends one event, overwriting the ring's oldest when full.
// On a nil recorder it is a no-op, so call sites need no enable checks.
func (r *FlightRecorder) Record(t float64, kind string, actor int, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.push(FlightEvent{T: t, Kind: kind, Actor: actor, Detail: detail})
	r.mu.Unlock()
}

// RecordMsg appends one message-shaped event (deliver, drop, lose, cut)
// without formatting anything: the message fields are stored raw and the
// human-readable Detail — "<msgKind> <from>-><to>[ dead]" — is
// materialized only if the ring is ever dumped. Recording stays
// allocation-free on the sim engine's hot path.
func (r *FlightRecorder) RecordMsg(t float64, kind string, actor int, msgKind string, from, to int, dead bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.push(FlightEvent{
		T: t, Kind: kind, Actor: actor,
		msgKind: msgKind, from: from, to: to, dead: dead, hasMsg: true,
	})
	r.mu.Unlock()
}

// push numbers ev and writes it over the oldest slot. r.mu is held, so
// ring order is Seq order.
func (r *FlightRecorder) push(ev FlightEvent) {
	r.seq++
	ev.Seq = r.seq
	r.evs[r.next] = ev
	r.next++
	if r.next == len(r.evs) {
		r.next = 0
	}
	if r.n < len(r.evs) {
		r.n++
	}
}

// Dump copies the surviving events in Seq order — the record order,
// which for a single-goroutine sim run is exactly the deterministic
// event order — materializing lazily recorded message details.
func (r *FlightRecorder) Dump() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.evs)
	}
	for i := 0; i < r.n; i++ {
		ev := r.evs[(start+i)%len(r.evs)]
		if ev.hasMsg {
			if ev.dead {
				ev.Detail = fmt.Sprintf("%s %d->%d dead", ev.msgKind, ev.from, ev.to)
			} else {
				ev.Detail = fmt.Sprintf("%s %d->%d", ev.msgKind, ev.from, ev.to)
			}
			ev.msgKind, ev.from, ev.to, ev.dead, ev.hasMsg = "", 0, 0, false, false
		}
		out = append(out, ev)
	}
	return out
}

// Tail returns the last n events of a dump (the whole dump if shorter).
func Tail(evs []FlightEvent, n int) []FlightEvent {
	if len(evs) <= n {
		return evs
	}
	return evs[len(evs)-n:]
}

// WriteTimeline renders events one per line for humans (post-mortems,
// SIGQUIT dumps).
func WriteTimeline(w io.Writer, evs []FlightEvent) {
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
}
