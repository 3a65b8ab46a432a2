package obs

import "time"

// Span is one timed phase execution. Obtain with Registry.StartSpan (or
// the package-level StartSpan for the default registry) and call End
// exactly once when the phase finishes; the elapsed wall time lands in
// the span's histogram in seconds.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing the named phase. The backing histogram is
// created on first use with DefLatencyBuckets.
func (r *Registry) StartSpan(name string) Span {
	return Span{h: r.Histogram(name, DefLatencyBuckets), start: time.Now()}
}

// End stops the span, records its duration, and returns it. End on a
// zero Span is a no-op.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}
