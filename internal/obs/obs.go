// Package obs is the unified instrumentation layer for the DECOR
// reproduction: a dependency-free (stdlib only) registry of named
// counters and gauges with atomic updates and histograms with one fixed
// bucket layout, timed phases (span.go) whose one End call feeds both a
// histogram and, inside a trace, a bounded span ring (tracer.go), a
// fixed-memory flight recorder of structured events (flight.go), and
// labeled counters for per-tenant/route attribution (label.go).
//
// The paper's evaluation (§4) is entirely about measured quantities —
// messages per cell, rounds, redundant nodes, coverage fractions — but
// internal/metrics only measures runs post-hoc. This package observes a
// run while it executes: internal/sim emits per-event counters and a
// queue-depth gauge, internal/protocol emits heartbeat/election/placement
// counters, and internal/core records per-round benefit-evaluation wall
// time. Two exporters make the data consumable: Prometheus text
// exposition (WritePrometheus) and a JSON snapshot that internal/trace
// appends to its JSONL schema as an "obs" record.
//
// All instruments are safe for concurrent use; Registry lookups use a
// read-mostly map and counter/gauge updates are single atomic operations,
// so instrumented hot paths stay cheap. A histogram's observations and
// snapshots share one mutex, so snapshots are never torn (count, sum and
// buckets always agree). Every histogram has the same buckets.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced to keep the hot path branch-free).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a floating-point metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// latencyBounds are the upper bounds, in seconds, of every histogram's
// buckets: 1µs..10s, wide enough for a single benefit evaluation and a
// full deployment round alike.
var latencyBounds = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Histogram counts observations into the latencyBounds buckets. Bucket i
// counts observations v with v <= latencyBounds[i] (and above the bound
// before it); one extra overflow bucket holds everything above the last
// bound (+Inf in the Prometheus exposition). The zero value is ready to
// use.
//
// Observe and snapshot take the same mutex, so a snapshot's buckets and
// sum always come from the same set of completed observations.
type Histogram struct {
	mu      sync.Mutex
	buckets [len(latencyBounds) + 1]uint64 // last = overflow
	sum     float64
}

// Observe records one value. Span.End is the one caller outside tests:
// a timed phase observes through its span.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(latencyBounds[:], v) // first bound >= v: inclusive le
	h.mu.Lock()
	h.buckets[i]++
	h.sum += v
	h.mu.Unlock()
}

// snapshot captures a consistent view: Count is the sum of Counts, and
// Sum covers exactly those observations.
func (h *Histogram) snapshot() HistSnapshot {
	hs := HistSnapshot{Buckets: append([]float64(nil), latencyBounds[:]...)}
	h.mu.Lock()
	hs.Counts = append([]uint64(nil), h.buckets[:]...)
	hs.Sum = h.sum
	h.mu.Unlock()
	for _, c := range hs.Counts {
		hs.Count += c
	}
	return hs
}

// Registry holds named instruments. The zero value is not usable; create
// with NewRegistry (or use the process-wide Default). Labeled counters
// (CounterL) live in the same map under their full series key
// `name{k="v",...}`.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// instrument returns the instrument stored in m under a full series key,
// creating it on first use.
func instrument[T any](r *Registry, m map[string]*T, key string) *T {
	r.mu.RLock()
	v, ok := m[key]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[key]; !ok {
		v = new(T)
		m[key] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return instrument(r, r.counters, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return instrument(r, r.gauges, name) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return instrument(r, r.hists, name) }

// HistSnapshot is the exported state of one histogram. Counts has one
// entry per bucket plus a trailing overflow bucket (+Inf).
type HistSnapshot struct {
	Buckets []float64 `json:"buckets"`
	Counts  []uint64  `json:"counts"`
	Sum     float64   `json:"sum"`
	Count   uint64    `json:"count"`
}

// Snapshot is a point-in-time copy of every instrument in a registry; it
// shares no state with the live registry and marshals directly to JSON
// (the payload of the trace package's "obs" record). Labeled counters
// appear under their full series key (`name{k="v"}`).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// seriesFamily strips the label suffix from a series key: the Prometheus
// metric-family name a # TYPE line announces.
func seriesFamily(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// sortedSeries returns the keys of a metric map ordered by (family,
// series), so every labeled variant of one family is contiguous in the
// exposition — required for the single # TYPE line per family — and the
// output is deterministic.
func sortedSeries[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := seriesFamily(out[i]), seriesFamily(out[j])
		if fi != fj {
			return fi < fj
		}
		return out[i] < out[j]
	})
	return out
}
