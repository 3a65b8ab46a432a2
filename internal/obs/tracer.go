package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end trace (a request, a chaos run, a
// deployment). Zero is "no trace". It renders as 16 hex digits — the
// value of the X-Decor-Trace response header.
type TraceID uint64

// String renders the ID as fixed-width hex.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseTraceID parses the hex form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	return TraceID(v), err
}

// SpanRecord is one completed span as exported to JSONL and
// /debug/traces — the unit cmd/decor-trace consumes.
type SpanRecord struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"` // absent for the root span
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // wall clock, unix nanoseconds
	DurNS   int64  `json:"dur_ns"`
	Attr    string `json:"attr,omitempty"`
}

// spanRec is the in-ring representation (numeric IDs, no rendering).
type spanRec struct {
	seq          uint64
	trace        TraceID
	span, parent uint64
	name         string
	start        int64
	dur          int64
	attr         string
}

func (r spanRec) export() SpanRecord {
	sr := SpanRecord{
		Trace:   r.trace.String(),
		Span:    fmt.Sprintf("%016x", r.span),
		Name:    r.name,
		StartNS: r.start,
		DurNS:   r.dur,
		Attr:    r.attr,
	}
	if r.parent != 0 {
		sr.Parent = fmt.Sprintf("%016x", r.parent)
	}
	return sr
}

// spanSlot is one ring cell. state is a CAS gate: 0 = stable, 1 = owned
// by a writer or reader. Ownership makes the multi-word record access
// race-free without a lock; a writer that loses the gate (a reader is
// copying the slot, or a lapping writer still holds it) drops its span
// and counts the drop — bounded memory beats unbounded fidelity here.
type spanSlot struct {
	state atomic.Uint32
	rec   spanRec
}

// Tracer records completed spans into a bounded lock-free ring. The ring
// never grows: once full, new spans overwrite the oldest. A nil *Tracer
// is a valid no-op tracer, so call sites need no guards.
type Tracer struct {
	slots []spanSlot
	mask  uint64
	pos   atomic.Uint64 // claimed slots, monotonic
	ids   atomic.Uint64
	seed  uint64
}

// NewTracer creates a tracer whose ring holds at least capacity spans
// (rounded up to a power of two; minimum 64).
func NewTracer(capacity int) *Tracer {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &Tracer{
		slots: make([]spanSlot, n),
		mask:  uint64(n - 1),
		seed:  uint64(time.Now().UnixNano()),
	}
}

// newID derives a unique random-looking 64-bit ID (splitmix64 over a
// seeded sequence; never zero, since zero means "absent").
func (t *Tracer) newID() uint64 {
	x := t.ids.Add(1) + t.seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func (t *Tracer) record(rec spanRec) {
	i := t.pos.Add(1) - 1
	s := &t.slots[i&t.mask]
	if !s.state.CompareAndSwap(0, 1) {
		return // the slot is being written: drop this span
	}
	rec.seq = i
	s.rec = rec
	s.state.Store(0)
}

// ctxKey carries the active span through a context.Context.
type ctxKey struct{}

// spanCtx is the active span a context carries (Span.Context).
type spanCtx struct {
	tr    *Tracer
	trace TraceID
	span  uint64
}

// Spans returns every stable record in the ring, oldest first. Slots a
// writer owns at copy time are skipped (they are mid-overwrite).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	recs := make([]spanRec, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		if !s.state.CompareAndSwap(0, 1) {
			continue
		}
		rec := s.rec
		s.state.Store(0)
		if rec.trace != 0 {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]SpanRecord, len(recs))
	for i, r := range recs {
		out[i] = r.export()
	}
	return out
}

// Trace returns the recorded spans of one trace, oldest first.
func (t *Tracer) Trace(id TraceID) []SpanRecord {
	want := id.String()
	var out []SpanRecord
	for _, sr := range t.Spans() {
		if sr.Trace == want {
			out = append(out, sr)
		}
	}
	return out
}

// WriteJSONL dumps every recorded span as one JSON object per line —
// the interchange format cmd/decor-trace summarizes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sr := range t.Spans() {
		if err := enc.Encode(sr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TraceSummary is one trace's roll-up as served by /debug/traces.
type TraceSummary struct {
	Trace   string `json:"trace"`
	Root    string `json:"root"` // root span name ("" if the root fell off the ring)
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"` // root duration (max span end - min start as fallback)
	Spans   int    `json:"spans"`
}

// Summaries rolls the ring up per trace, most recent first.
func (t *Tracer) Summaries() []TraceSummary {
	byTrace := map[string]*TraceSummary{}
	for _, sr := range t.Spans() {
		ts := byTrace[sr.Trace]
		if ts == nil {
			ts = &TraceSummary{Trace: sr.Trace, StartNS: sr.StartNS}
			byTrace[sr.Trace] = ts
		}
		ts.Spans++
		if sr.StartNS < ts.StartNS {
			ts.StartNS = sr.StartNS
		}
		if sr.Parent == "" {
			ts.Root = sr.Name
			ts.DurNS = sr.DurNS
		} else if ts.Root == "" && sr.StartNS+sr.DurNS-ts.StartNS > ts.DurNS {
			ts.DurNS = sr.StartNS + sr.DurNS - ts.StartNS
		}
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for _, ts := range byTrace {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS > out[j].StartNS
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// The process-wide default tracer (4096-span ring): the tracer of a
// service configured without one.
var defaultTracer = NewTracer(4096)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }
