package obs

import (
	"context"
	"time"
)

// Span times one phase into both sinks: its histogram, if it has one,
// and, when the phase runs inside a trace, the tracer's span ring. Start
// one with Start (or Tracer.StartTrace for a trace's root) and call End
// once when the phase finishes. A Span is a plain value: timing a phase
// outside any trace allocates nothing.
type Span struct {
	h            *Histogram // nil: no histogram
	tr           *Tracer    // nil: untraced
	trace        TraceID
	span, parent uint64
	name         string
	attr         string
	start        time.Time
}

// Start begins timing the named phase into h (nil: no histogram). When
// ctx (which may be nil) carries a trace, the span joins it as a child of
// ctx's active span; otherwise it records no span. A phase that is never
// traced passes a nil ctx and no name. Only a span that parents other
// spans needs Context.
func Start(ctx context.Context, name string, h *Histogram) Span {
	s := Span{h: h, name: name}
	if ctx != nil {
		if sc, ok := ctx.Value(ctxKey{}).(spanCtx); ok {
			s.tr, s.trace, s.parent, s.span = sc.tr, sc.trace, sc.span, sc.tr.newID()
		}
	}
	s.start = time.Now()
	return s
}

// StartTrace begins a new trace on t whose root span times the named
// phase into h (nil: no histogram). On a nil tracer the span is untraced
// and only feeds h.
func (t *Tracer) StartTrace(name string, h *Histogram) Span {
	s := Span{h: h, name: name}
	if t != nil {
		s.tr, s.trace, s.span = t, TraceID(t.newID()), t.newID()
	}
	s.start = time.Now()
	return s
}

// Context returns ctx with s as its active span, so spans started from
// the result are s's children. ctx need not descend from the context s
// was started in: the service hands a request's trace to a job context
// that a client hang-up must not cancel. An untraced s returns ctx.
func (s *Span) Context(ctx context.Context) context.Context {
	if s.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, spanCtx{tr: s.tr, trace: s.trace, span: s.span})
}

// TraceID returns the trace the span belongs to (0 when untraced).
func (s *Span) TraceID() TraceID { return s.trace }

// SetAttr attaches a free-form annotation exported with the span record.
// Callers format it only when TraceID is non-zero.
func (s *Span) SetAttr(attr string) { s.attr = attr }

// End stops the span and returns its duration. It reads the clock once,
// observes the duration in seconds in the histogram, and records a
// traced span in its tracer's ring.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.h != nil {
		s.h.Observe(d.Seconds())
	}
	if s.tr != nil {
		s.tr.record(spanRec{
			trace: s.trace, span: s.span, parent: s.parent,
			name: s.name, start: s.start.UnixNano(), dur: int64(d), attr: s.attr,
		})
	}
	return d
}
