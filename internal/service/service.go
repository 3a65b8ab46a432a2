// Package service turns the DECOR planner into a long-running
// request/response system: decor-serve's HTTP layer, admission control,
// plan cache and instrumentation live here, on top of the decor facade.
//
// The paper's restoration step (§3) is a natural online operation — a
// field state comes in, a placement plan comes out — and this package
// owns the production concerns around it: an admission gate
// (internal/admit) that every plan and repair passes through on its own
// goroutine (overload answers 503 or 429 + Retry-After instead of
// queueing unboundedly; field sessions have a gate of their own),
// per-request deadlines carried by context.Context through the gate's
// wait and into the placement round loop, an LRU cache of finished plans
// keyed by the digest of each request's exact bytes (every miss is
// planned by the request that missed), and a graceful drain on shutdown.
// DESIGN.md §9 documents the invariants.
package service

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"decor/internal/admit"
	"decor/internal/obs"
	"decor/internal/session"
)

// Config sizes a Server. The zero value gets sensible defaults from
// normalization: DefaultLimits and the process-wide registry and
// tracer. The plan cache is not configured: it holds the last
// planCacheSize finished plans.
type Config struct {
	// Limits bounds individual requests; see Limits.
	Limits Limits
	// Registry receives the decor_serve_* instruments and is exposed at
	// /metrics (default: the process-wide obs.Default()).
	Registry *obs.Registry
	// Tracer records per-request span trees, exposed at /debug/traces;
	// every response carries its trace ID in X-Decor-Trace (default: the
	// process-wide obs.DefaultTracer()).
	Tracer *obs.Tracer
	// Flight is the structured event recorder dumped at /debug/flight;
	// the planning and admission paths write to it, and the dump taken
	// when a 5xx is served is kept for post-mortem (default: one ring of
	// the last (GOMAXPROCS+1) × 256 events, shared by all writers).
	Flight *obs.FlightRecorder
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Sessions sizes the stateful field-session subsystem (DESIGN.md
	// §14). Its Registry defaults to this Config's Registry.
	Sessions session.Config
}

func (c Config) normalized() Config {
	c.Limits = c.Limits.normalized()
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
	if c.Flight == nil {
		c.Flight = obs.NewFlightRecorder((runtime.GOMAXPROCS(0) + 1) * 256)
	}
	if c.Sessions.Registry == nil {
		c.Sessions.Registry = c.Registry
	}
	return c
}

// Server is the restoration-planning service. Create with New, mount
// Handler on an http.Server, and Shutdown to drain.
type Server struct {
	cfg   Config
	cache *planCache

	// gate admits every plan and repair that misses the cache; session
	// calls pass the manager's own gate (DESIGN.md §9, *Why two gates*).
	gate *admit.Gate

	// baseCtx parents every planning context, so a forced shutdown can
	// abort in-flight planning promptly.
	baseCtx context.Context
	abort   context.CancelFunc

	// sessions owns the stateful field sessions (see sessions.go), and
	// streams their open NDJSON event streams (see EndStreams).
	sessions *session.Manager
	streams  streamSet

	// started anchors the flight recorder's relative timestamps.
	started time.Time

	// lastDump holds the flight-recorder snapshot taken when the most
	// recent 5xx was served, for /debug/flight post-mortems.
	dumpMu   sync.Mutex
	lastDump []obs.FlightEvent

	// tenants caps the cardinality of the tenant response label.
	tenants obs.TenantLabels

	// respCounters memoizes resolved labeled response-counter handles so
	// the per-request path is one RLock + map probe (see recordResponse).
	respMu       sync.RWMutex
	respCounters map[respKey]*obs.Counter

	// ewmaPlanMS tracks recent plan latency for Retry-After estimates.
	ewmaPlanMS atomicFloat

	// Instruments (obs/default.go names them).
	cPlanReqs, cRepairReqs, cBadReqs    *obs.Counter
	cRejected, cTimeouts, cErrors       *obs.Counter
	cCacheHits, cCacheMisses            *obs.Counter
	gQueueDepth, gInflight, gHeapAllocs *obs.Gauge
	hPlanSeconds, hRequestSeconds       *obs.Histogram
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   newPlanCache(planCacheSize),
		gate:    admit.New(runtime.GOMAXPROCS(0)),
		baseCtx: ctx,
		abort:   cancel,
		started: time.Now(),

		respCounters: map[respKey]*obs.Counter{},
	}
	s.sessions = session.New(cfg.Sessions)
	r := cfg.Registry
	s.cPlanReqs = r.Counter(obs.ServePlanRequests)
	s.cRepairReqs = r.Counter(obs.ServeRepairRequests)
	s.cBadReqs = r.Counter(obs.ServeBadRequests)
	s.cRejected = r.Counter(obs.ServeRejected)
	s.cTimeouts = r.Counter(obs.ServeTimeouts)
	s.cErrors = r.Counter(obs.ServeErrors)
	s.cCacheHits = r.Counter(obs.ServeCacheHits)
	s.cCacheMisses = r.Counter(obs.ServeCacheMisses)
	s.gQueueDepth = r.Gauge(obs.ServeQueueDepth)
	s.gInflight = r.Gauge(obs.ServeInflight)
	s.gHeapAllocs = r.Gauge(obs.ServeHeapAllocs)
	s.hPlanSeconds = r.Histogram(obs.ServePlanSeconds)
	s.hRequestSeconds = r.Histogram(obs.ServeRequestSeconds)
	return s
}

// uptime is the flight-recorder clock: seconds since the server started.
func (s *Server) uptime() float64 { return time.Since(s.started).Seconds() }

// Config returns the normalized configuration the server runs with.
func (s *Server) Config() Config { return s.cfg }

// retryAfterSeconds estimates when a rejected client should try again: a
// full gate's worth of work — admit.Depth calls per run slot, each about
// as long as recent plans — clamped to [1, 30] (Retry-After has
// one-second resolution, and anything above half a minute just makes
// clients give up).
func (s *Server) retryAfterSeconds() int {
	est := admit.Depth * s.ewmaPlanMS.load() / 1000
	return clampRetrySeconds(est, 30)
}

// clampRetrySeconds rounds a latency estimate in seconds up to a whole
// second and clamps it into [1, max]. The comparison happens in float
// space before any int conversion: converting a huge or infinite float
// to int is implementation-defined in Go (on amd64 it produces the
// minimum integer), so the old `int(math.Ceil(est))` turned an
// overflowed EWMA into Retry-After: 1 — precisely the wrong signal for
// a server that just reported being the most overloaded it can be.
func clampRetrySeconds(est float64, max int) int {
	if math.IsNaN(est) || est < 1 {
		return 1
	}
	if est >= float64(max) {
		return max
	}
	return int(math.Ceil(est))
}

// Draining reports whether Shutdown has begun (healthz turns 503 so load
// balancers stop routing here).
func (s *Server) Draining() bool { return s.gate.Closed() }

// Shutdown drains the service: the gate refuses new plans (and the
// manager new session calls), admitted ones run to completion, and
// Shutdown returns once the gate is empty. If ctx expires first the
// remaining plans are aborted through their contexts and Shutdown waits
// for them to notice, returning ctx.Err().
//
// Call order matters: stop the HTTP listener (http.Server.Shutdown, which
// waits for in-flight handlers and therefore for their plans) before or
// concurrently with this; Shutdown only drains the gate.
func (s *Server) Shutdown(ctx context.Context) error {
	drained := s.gate.Close()
	stop := context.AfterFunc(ctx, s.abort)
	// End the field streams, if the drain has not already: their
	// handlers return, so http.Server.Shutdown can finish. Session state
	// is rebuildable by design.
	s.EndStreams()
	<-drained
	if stop() {
		return nil
	}
	return ctx.Err()
}

// atomicFloat is a mutex-guarded EWMA holder (advisory latency stats).
type atomicFloat struct {
	mu sync.Mutex
	v  float64
}

func (a *atomicFloat) load() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// blend folds one sample into the EWMA (α = 0.2).
func (a *atomicFloat) blend(sample float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.v == 0 {
		a.v = sample
		return
	}
	a.v = 0.8*a.v + 0.2*sample
}
