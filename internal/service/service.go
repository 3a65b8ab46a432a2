// Package service turns the DECOR planner into a long-running
// request/response system: decor-serve's HTTP layer, admission control,
// plan cache and instrumentation live here, on top of the decor facade.
//
// The paper's restoration step (§3) is a natural online operation — a
// field state comes in, a placement plan comes out — and this package
// owns the production concerns around it: a bounded worker pool behind
// an admission queue (overload answers 503 + Retry-After instead of
// queueing unboundedly), per-request deadlines carried by
// context.Context all the way into the placement round loop, an LRU
// cache of finished plans keyed by the canonical request hash with
// singleflight coalescing of identical in-flight requests, and a
// graceful drain on shutdown. DESIGN.md §9 documents the invariants.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"decor/internal/obs"
	"decor/internal/session"
)

// Config sizes a Server. The zero value gets sensible defaults from
// normalization: GOMAXPROCS workers, a 256-deep admission queue, a
// 512-entry plan cache and DefaultLimits.
type Config struct {
	// Workers is the number of concurrent planner goroutines.
	Workers int
	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is rejected with 503 + Retry-After.
	QueueDepth int
	// CacheEntries sizes the LRU plan cache (negative disables it).
	CacheEntries int
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
	// workers and the admission path write to it, and the dump taken when
	// a 5xx is served is kept for post-mortem (default: one ring of the
	// last (Workers+1) × 256 events, shared by all writers).
	Flight *obs.FlightRecorder
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxQueuePerTenant caps how much of the admission queue one tenant
	// may occupy at once — the fairness bound that keeps a single noisy
	// tenant from starving everyone else's plans. Exceeding it answers
	// 429 + Retry-After (the queue itself still answers 503 when full).
	// Default: QueueDepth/4.
	MaxQueuePerTenant int
	// Sessions sizes the stateful field-session subsystem (DESIGN.md
	// §14); its Registry defaults to this Config's Registry.
	Sessions session.Config
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	c.Limits = c.Limits.normalized()
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
	if c.Flight == nil {
		c.Flight = obs.NewFlightRecorder((c.Workers + 1) * 256)
	}
	if c.MaxQueuePerTenant <= 0 {
		c.MaxQueuePerTenant = c.QueueDepth / 4
		if c.MaxQueuePerTenant < 1 {
			c.MaxQueuePerTenant = 1
		}
	}
	if c.Sessions.Registry == nil {
		c.Sessions.Registry = c.Registry
	}
	return c
}

// jobRunner executes one decoded request. An interface (satisfied by
// the pooled planRunner/repairRunner in handlers.go) instead of a
// closure keeps the hot path from allocating a func value per request.
type jobRunner interface {
	runJob(ctx context.Context) ([]byte, error)
}

// runnerFunc adapts a plain function to jobRunner.
type runnerFunc func(context.Context) ([]byte, error)

func (f runnerFunc) runJob(ctx context.Context) ([]byte, error) { return f(ctx) }

// job is one admitted planning request.
type job struct {
	ctx    context.Context // carries the request deadline into the planner
	runner jobRunner
	done   chan jobResult // buffered: the worker never blocks on delivery
	enq    time.Time      // when submit accepted the job (queue-wait attr)
	tenant string         // raw tenant header, for the fairness bound
}

type jobResult struct {
	body []byte
	err  error
}

// Server is the restoration-planning service. Create with New, mount
// Handler on an http.Server, and Shutdown to drain.
type Server struct {
	cfg    Config
	cache  *planCache
	flight *flightGroup

	queue chan *job
	wg    sync.WaitGroup // worker goroutines

	// baseCtx parents every job context, so a forced shutdown can abort
	// in-flight planning promptly.
	baseCtx context.Context
	abort   context.CancelFunc

	mu       sync.Mutex
	draining bool
	// queued tracks how many admitted jobs each tenant currently has in
	// the pool (queued or running), for the per-tenant fairness bound.
	queued map[string]int

	// sessions owns the stateful field sessions (see sessions.go).
	sessions *session.Manager

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

	// Instruments (see obs.RegisterServe for the taxonomy).
	cPlanReqs, cRepairReqs, cBadReqs     *obs.Counter
	cRejected, cTimeouts, cErrors        *obs.Counter
	cCacheHits, cCacheMisses, cCoalesced *obs.Counter
	gQueueDepth, gInflight, gHeapAllocs  *obs.Gauge
	hPlanSeconds, hRequestSeconds        *obs.Histogram
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   newPlanCache(cfg.CacheEntries),
		flight:  newFlightGroup(),
		queue:   make(chan *job, cfg.QueueDepth),
		baseCtx: ctx,
		abort:   cancel,
		started: time.Now(),
		queued:  map[string]int{},

		respCounters: map[respKey]*obs.Counter{},
	}
	s.sessions = session.New(cfg.Sessions)
	r := cfg.Registry
	obs.RegisterServe(r)
	s.cPlanReqs = r.Counter(obs.ServePlanRequests)
	s.cRepairReqs = r.Counter(obs.ServeRepairRequests)
	s.cBadReqs = r.Counter(obs.ServeBadRequests)
	s.cRejected = r.Counter(obs.ServeRejected)
	s.cTimeouts = r.Counter(obs.ServeTimeouts)
	s.cErrors = r.Counter(obs.ServeErrors)
	s.cCacheHits = r.Counter(obs.ServeCacheHits)
	s.cCacheMisses = r.Counter(obs.ServeCacheMisses)
	s.cCoalesced = r.Counter(obs.ServeCoalesced)
	s.gQueueDepth = r.Gauge(obs.ServeQueueDepth)
	s.gInflight = r.Gauge(obs.ServeInflight)
	s.gHeapAllocs = r.Gauge(obs.ServeHeapAllocs)
	s.hPlanSeconds = r.Histogram(obs.ServePlanSeconds, obs.DefLatencyBuckets)
	s.hRequestSeconds = r.Histogram(obs.ServeRequestSeconds, obs.DefLatencyBuckets)

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// uptime is the flight-recorder clock: seconds since the server started.
func (s *Server) uptime() float64 { return time.Since(s.started).Seconds() }

// Config returns the normalized configuration the server runs with.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) worker(idx int) {
	defer s.wg.Done()
	for j := range s.queue {
		s.gQueueDepth.Add(-1)
		s.gInflight.Add(1)
		var res jobResult
		// The deadline covers queue wait too: a job that spent its whole
		// budget queued fails fast instead of planning for a client that
		// has already given up. It is timed like any job, but plans
		// nothing, so its span stays out of the request's trace.
		tctx := j.ctx
		expired := tctx.Err()
		if expired != nil {
			tctx = s.baseCtx
		}
		span := obs.Start(tctx, "plan.run", s.hPlanSeconds)
		if expired != nil {
			res = jobResult{err: expired}
			s.cfg.Flight.Record(s.uptime(), "plan.expired", idx, "deadline spent in queue")
		} else {
			if span.TraceID() != 0 {
				span.SetAttr(fmt.Sprintf("queue_wait_ms=%.2f", time.Since(j.enq).Seconds()*1000))
			}
			body, err := j.runner.runJob(span.Context(j.ctx))
			res = jobResult{body: body, err: err}
			if err != nil {
				s.cfg.Flight.Record(s.uptime(), "plan.err", idx, err.Error())
			} else {
				s.cfg.Flight.Record(s.uptime(), "plan.done", idx, fmt.Sprintf("bytes=%d", len(body)))
			}
		}
		s.ewmaPlanMS.blend(span.End().Seconds() * 1000)
		j.done <- res
		s.gInflight.Add(-1)
	}
}

// errTenantOverloaded: the tenant's fair share of the admission queue
// is spoken for; other tenants' requests still admit normally.
var errTenantOverloaded = errors.New("tenant admission quota exhausted")

// submit offers j to the admission queue without blocking. A nil error
// admits; errTenantOverloaded means the tenant hit its fairness bound
// (429), errOverloaded means the whole queue is saturated or draining
// (503). Admitted jobs hold one slot of their tenant's share until
// release.
func (s *Server) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errOverloaded
	}
	// The fairness bound applies per named tenant; anonymous requests
	// (no X-Decor-Tenant) share the queue's global capacity only.
	if j.tenant != "" && s.queued[j.tenant] >= s.cfg.MaxQueuePerTenant {
		return errTenantOverloaded
	}
	j.enq = time.Now()
	select {
	case s.queue <- j:
		if j.tenant != "" {
			s.queued[j.tenant]++
		}
		s.gQueueDepth.Add(1)
		return nil
	default:
		return errOverloaded
	}
}

// release returns j's tenant-share slot once its result is consumed.
func (s *Server) release(j *job) {
	if j.tenant == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued[j.tenant] > 0 {
		s.queued[j.tenant]--
		if s.queued[j.tenant] == 0 {
			delete(s.queued, j.tenant)
		}
	}
}

// retryAfterSeconds estimates when a rejected client should try again: a
// full queue's worth of work spread over the pool, clamped to [1, 30]
// (Retry-After has one-second resolution, and anything above half a
// minute just makes clients give up).
func (s *Server) retryAfterSeconds() int {
	est := float64(s.cfg.QueueDepth) * s.ewmaPlanMS.load() / 1000 / float64(s.cfg.Workers)
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
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the service: new submissions are refused, queued and
// in-flight plans run to completion, workers exit. If ctx expires first
// the remaining plans are aborted through their contexts and Shutdown
// waits for the workers to notice, returning ctx.Err().
//
// Call order matters: stop the HTTP listener (http.Server.Shutdown, which
// waits for in-flight handlers and therefore for their jobs) before or
// concurrently with this; Shutdown only manages the pool.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		// No submit can be in flight past this point: submit checks
		// draining under the same mutex.
		close(s.queue)
	}
	// Close the session manager first: it closes every subscriber
	// channel, which unblocks SSE handlers so http.Server.Shutdown can
	// finish. Idempotent, and session state is rebuildable by design.
	s.sessions.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abort() // cancel in-flight plan contexts
		<-done
		return ctx.Err()
	}
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
