// Package obs is the unified instrumentation layer for the DECOR
// reproduction: a dependency-free (stdlib only) registry of named
// counters, gauges and fixed-bucket histograms with atomic updates,
// timed phases (span.go) whose one End call feeds both a histogram and,
// inside a trace, a bounded span ring (tracer.go), a fixed-memory
// flight recorder of structured events (flight.go), and
// low-alloc label sets for per-tenant/arch/route attribution (label.go).
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
// so instrumented hot paths stay cheap. Histogram observations serialize
// writers behind a mutex and publish through a seqlock so snapshots are
// never torn (count, sum and buckets always agree).
package obs

import (
	"math"
	"runtime"
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

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= upper[i] (and > upper[i-1]); one extra
// overflow bucket holds everything above the last bound (+Inf in the
// Prometheus exposition).
//
// Writers are serialized by a mutex and bracket their updates with a
// seqlock version, so a concurrent snapshot always sees count, sum and
// the bucket array from the same set of completed observations — the
// torn count/sum reads the original atomic-only Observe allowed are
// gone. Individual getters (Count, Sum) stay lock-free.
type Histogram struct {
	upper []float64

	mu  sync.Mutex    // serializes writers
	ver atomic.Uint64 // seqlock: odd while a write is in flight

	buckets []atomic.Uint64 // len(upper)+1; last = overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(upperBounds []float64) *Histogram {
	if len(upperBounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	upper := append([]float64(nil), upperBounds...)
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		upper:   upper,
		buckets: make([]atomic.Uint64, len(upper)+1),
	}
}

// Observe records one value. Span.End is the one caller outside tests:
// a timed phase observes through its span.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v: inclusive le
	h.mu.Lock()
	h.ver.Add(1) // odd: snapshots retry until the write completes
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumBits.Store(math.Float64bits(math.Float64frombits(h.sumBits.Load()) + v))
	h.ver.Add(1)
	h.mu.Unlock()
}

// snapshot captures a consistent view: it retries while a writer holds
// the seqlock odd or bumped it mid-read, so Count always equals the sum
// of Counts and Sum matches exactly those observations.
func (h *Histogram) snapshot() HistSnapshot {
	hs := HistSnapshot{
		Buckets: append([]float64(nil), h.upper...),
		Counts:  make([]uint64, len(h.buckets)),
	}
	for {
		v1 := h.ver.Load()
		if v1&1 == 1 {
			runtime.Gosched()
			continue
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		hs.Sum = math.Float64frombits(h.sumBits.Load())
		hs.Count = h.count.Load()
		if h.ver.Load() == v1 {
			break
		}
		runtime.Gosched()
	}
	return hs
}

// DefLatencyBuckets are the default span-duration bounds in seconds,
// spanning 1µs..10s — wide enough for a single benefit evaluation and a
// full deployment round alike.
var DefLatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Registry holds named instruments. The zero value is not usable; create
// with NewRegistry (or use the process-wide Default). Labeled series
// (label.go) live in the same maps under their full series key
// `name{k="v",...}`.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	lmu      sync.RWMutex
	interned map[string]LabelSet
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		interned: map[string]LabelSet{},
	}
}

// sanitizeName maps an arbitrary string onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], so exposition output is always parseable.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	// Fast path: canonical names are already clean; don't allocate for
	// them (every lookup by name sanitizes).
	clean := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			('0' <= c && c <= '9' && i > 0)
		if !ok {
			clean = false
			break
		}
	}
	if clean {
		return name
	}
	b := []byte(name)
	for i, c := range b {
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			('0' <= c && c <= '9' && i > 0)
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

// getCounter returns the counter stored under a full series key (already
// sanitized, possibly carrying a label suffix), creating it on first use.
func (r *Registry) getCounter(key string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[key]; !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

func (r *Registry) getGauge(key string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[key]; !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

func (r *Registry) getHistogram(key string, upperBounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[key]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if h, ok = r.hists[key]; !ok {
			h = newHistogram(upperBounds)
			r.hists[key] = h
		}
		r.mu.Unlock()
	}
	if !boundsMatch(h.upper, upperBounds) {
		// The caller asked for different buckets than the live series
		// has. Silently dropping the caller's bounds used to be invisible
		// — now every occurrence is surfaced as a counter (and the
		// existing series still wins, so concurrent observers never see
		// the bucket layout change underneath them).
		r.getCounter(ObsHistBoundsConflicts).Inc()
	}
	return h
}

// boundsMatch reports whether two bucket-bound slices are identical. The
// pointer fast path covers the common case of a shared bounds slice
// (DefLatencyBuckets) without walking it.
func boundsMatch(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.getCounter(sanitizeName(name))
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.getGauge(sanitizeName(name))
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. An existing histogram is returned
// as-is — its original buckets win — but a call whose bounds disagree
// with the live series is no longer silent: it increments
// ObsHistBoundsConflicts so the misconfiguration shows up on a scrape.
func (r *Registry) Histogram(name string, upperBounds []float64) *Histogram {
	return r.getHistogram(sanitizeName(name), upperBounds)
}

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
// (the payload of the trace package's "obs" record). Labeled series
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
