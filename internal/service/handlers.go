package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"decor/internal/jsonx"
	"decor/internal/obs"
)

const jsonContentType = "application/json; charset=utf-8"

// traceHeader carries the request's trace ID back to the client; feed it
// to /debug/traces?trace=<id> or decor-trace to see the span tree.
const traceHeader = "X-Decor-Trace"

// tenantHeader optionally attributes a request to a tenant for the
// labeled response counter. Cardinality is capped at maxTenantLabels;
// later tenants are folded into "other" so a label-spraying client
// cannot grow the registry unboundedly.
const tenantHeader = "X-Decor-Tenant"

const maxTenantLabels = 64

// cacheStatusHeader reports how a response was produced: "miss" (a cold
// worker computed it), "hit" (LRU cache), or "coalesced" (singleflight
// follower). The body is byte-identical across all three — only this
// header differs, which is why it is a header and not a body field.
const cacheStatusHeader = "X-Decor-Cache"

// Shared header values, assigned into the header map directly (keys are
// pre-canonicalized). http.Header.Set allocates a fresh one-element
// slice per call; these are written by the server and only read by
// net/http, so sharing is safe and the hot path pays zero allocations.
var (
	headerValJSON      = []string{jsonContentType}
	headerValHit       = []string{"hit"}
	headerValMiss      = []string{"miss"}
	headerValCoalesced = []string{"coalesced"}
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/plan                field + sensors + k + method → placement plan
//	POST   /v1/repair              deployment + failed IDs      → restoration plan
//	POST   /v1/fields              create a stateful field session
//	POST   /v1/fields/{id}/events  stream failure events in, deltas out (NDJSON)
//	GET    /v1/fields/{id}/stream  SSE delta feed (?from_seq=N)
//	GET    /v1/fields/{id}         session metadata
//	DELETE /v1/fields/{id}         drop the session
//	GET    /healthz                liveness/readiness (503 while draining)
//	GET    /metrics                live Prometheus scrape of the obs registry
//	GET    /debug/traces           recent request span trees (?trace=<id> drills down)
//	GET    /debug/flight           flight-recorder event dump (live + last-5xx)
//	GET    /debug/pprof/           net/http/pprof, only with Config.EnablePprof
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/repair", s.handleRepair)
	// Field sessions (sessions.go, DESIGN.md §14). Explicit route labels
	// keep the response counter's cardinality independent of field IDs.
	mux.HandleFunc("POST /v1/fields", s.withSessionMetrics("/v1/fields", s.handleFieldCreate))
	mux.HandleFunc("POST /v1/fields/{id}/events", s.withSessionMetrics("/v1/fields/{id}/events", s.handleFieldEvents))
	mux.HandleFunc("GET /v1/fields/{id}/stream", s.withSessionMetrics("/v1/fields/{id}/stream", s.handleFieldStream))
	mux.HandleFunc("GET /v1/fields/{id}", s.withSessionMetrics("/v1/fields/{id}", s.handleFieldGet))
	mux.HandleFunc("DELETE /v1/fields/{id}", s.withSessionMetrics("/v1/fields/{id}", s.handleFieldDelete))
	mux.HandleFunc("/healthz", s.handleHealthz)
	metricsH := s.cfg.Registry.Handler()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.refreshHeapAllocs()
		metricsH.ServeHTTP(w, r)
	})
	mux.Handle("/debug/traces", s.cfg.Tracer.DebugHandler())
	mux.HandleFunc("/debug/flight", s.handleFlight)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// refreshHeapAllocs updates the cumulative heap-allocation gauge from
// runtime/metrics just before a /metrics scrape renders it, so a load
// generator can compute allocs-per-request from two scrapes.
func (s *Server) refreshHeapAllocs() {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		s.gHeapAllocs.Set(float64(sample[0].Value.Uint64()))
	}
}

// handleFlight serves the flight recorder: the live ring contents plus
// the snapshot taken when the most recent 5xx was served, if any.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		s.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.dumpMu.Lock()
	last := s.lastDump
	s.dumpMu.Unlock()
	body, err := json.Marshal(struct {
		Live    []obs.FlightEvent `json:"live"`
		Last5xx []obs.FlightEvent `json:"last_5xx,omitempty"`
	}{Live: s.cfg.Flight.Dump(), Last5xx: last})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding flight dump: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.Write(body)
	w.Write([]byte{'\n'})
}

// captureFlight freezes the recorder's current contents for /debug/flight
// after a 5xx response.
func (s *Server) captureFlight() {
	d := s.cfg.Flight.Dump()
	if d == nil {
		return
	}
	s.dumpMu.Lock()
	s.lastDump = d
	s.dumpMu.Unlock()
}

// tenantLabel maps the raw tenant header to a bounded label value.
func (s *Server) tenantLabel(raw string) string {
	if raw == "" {
		return "none"
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if s.tenants[raw] {
		return raw
	}
	if len(s.tenants) >= maxTenantLabels {
		return "other"
	}
	s.tenants[raw] = true
	return raw
}

// respKey indexes the memoized labeled response counters. The obs
// Labels/CounterL lookups allocate (joined label strings) on every
// call even for known series, so the server keeps its own resolved
// handle per combination — the map stays bounded by routes × statuses ×
// the capped tenant label set.
type respKey struct {
	route  string
	status int
	tenant string
}

// recordResponse bumps the labeled response counter for one request.
func (s *Server) recordResponse(route string, status int, tenant string) {
	k := respKey{route: route, status: status, tenant: s.tenantLabel(tenant)}
	s.respMu.RLock()
	c := s.respCounters[k]
	s.respMu.RUnlock()
	if c == nil {
		reg := s.cfg.Registry
		ls := reg.Labels("route", k.route, "status", strconv.Itoa(k.status), "tenant", k.tenant)
		c = reg.CounterL(obs.ServeResponses, ls)
		s.respMu.Lock()
		s.respCounters[k] = c
		s.respMu.Unlock()
	}
	c.Inc()
}

// statusWriter captures the status code a handler wrote and counts the
// response under (route, status, tenant) the moment the status is
// committed — before any byte reaches the client, so a scrape issued
// after a response always sees it counted. The 5xx flight capture reads
// the status after the handler returns. Instances are pooled; nothing
// retains one past its request (http.MaxBytesReader holds a reference
// but only type-asserts it, never touching fields).
type statusWriter struct {
	http.ResponseWriter
	status        int
	srv           *Server
	route, tenant string
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (s *Server) getStatusWriter(w http.ResponseWriter, route, tenant string) *statusWriter {
	sw := swPool.Get().(*statusWriter)
	sw.ResponseWriter = w
	sw.status = 0
	sw.srv, sw.route, sw.tenant = s, route, tenant
	return sw
}

func putStatusWriter(sw *statusWriter) {
	sw.ResponseWriter, sw.srv = nil, nil
	swPool.Put(sw)
}

// commit records the response status on its first call.
func (sw *statusWriter) commit(code int) {
	if sw.status == 0 {
		sw.status = code
		sw.srv.recordResponse(sw.route, code, sw.tenant)
	}
}

// finish commits the implicit 200 of a handler that wrote nothing and
// returns the response status.
func (sw *statusWriter) finish() int {
	sw.commit(http.StatusOK)
	return sw.status
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.commit(code)
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.commit(http.StatusOK)
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the SSE and NDJSON
// streaming handlers still flush through the metrics wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		sw.commit(http.StatusOK)
		f.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", jsonContentType)
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"draining\"}\n"))
		return
	}
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// planEndpoint selects which request shape servePlanLike decodes.
type planEndpoint int

const (
	epPlan planEndpoint = iota
	epRepair
)

// planRunner / repairRunner carry a decoded request into the worker
// pool. They are pooled so the hot path allocates neither a closure nor
// a heap copy of the request; the leader recycles its runner after the
// worker's result is consumed (the handler owns it for the whole
// request — workers never touch a runner after sending the result).
type planRunner struct{ pr PlanRequest }

func (p *planRunner) runJob(ctx context.Context) ([]byte, error) { return executePlan(ctx, p.pr) }

type repairRunner struct{ rr RepairRequest }

func (p *repairRunner) runJob(ctx context.Context) ([]byte, error) { return executeRepair(ctx, p.rr) }

var (
	planRunnerPool   = sync.Pool{New: func() any { return new(planRunner) }}
	repairRunnerPool = sync.Pool{New: func() any { return new(repairRunner) }}
)

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.cPlanReqs.Inc()
	s.servePlanLike(w, r, epPlan)
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	s.cRepairReqs.Inc()
	s.servePlanLike(w, r, epRepair)
}

// setTraceHeader writes the trace ID in TraceID.String's fixed-width
// hex form without fmt (one string + one slice allocation).
func setTraceHeader(h http.Header, id obs.TraceID) {
	const hexDigits = "0123456789abcdef"
	var hb [16]byte
	v := uint64(id)
	for i := 15; i >= 0; i-- {
		hb[i] = hexDigits[v&0xF]
		v >>= 4
	}
	h[traceHeader] = []string{string(hb[:])}
}

// servePlanLike is the shared request path of the two planning
// endpoints: decode+validate, cache lookup, singleflight, admission,
// deadline, response.
func (s *Server) servePlanLike(w http.ResponseWriter, r *http.Request, ep planEndpoint) {
	start := time.Now()
	route := r.URL.Path
	tctx, root := s.cfg.Tracer.StartTrace(r.Context(), route)
	sw := s.getStatusWriter(w, route, r.Header.Get(tenantHeader))
	defer putStatusWriter(sw) // registered first: runs after the metrics defer reads sw
	w = sw
	if root != nil {
		setTraceHeader(w.Header(), root.TraceID())
	}
	defer func() {
		root.End()
		status := sw.finish()
		sec := time.Since(start).Seconds()
		if root != nil {
			// The exemplar ties this latency bucket to the trace: a p99
			// scrape can name an X-Decor-Trace ID to drill into.
			s.hRequestSeconds.ObserveExemplar(sec, root.TraceID())
		} else {
			s.hRequestSeconds.Observe(sec)
		}
		if status >= 500 {
			s.captureFlight()
		}
	}()

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)

	// Decode and normalize into a pooled runner: the fast-path codec
	// reads the pooled body buffer, so a cache hit allocates nothing
	// here beyond the parse span itself.
	var key reqKey
	var timeout time.Duration
	var runner jobRunner
	pSpan := obs.StartChildSpan(tctx, "parse")
	var err error
	switch ep {
	case epPlan:
		p := planRunnerPool.Get().(*planRunner)
		defer planRunnerPool.Put(p)
		p.pr = PlanRequest{}
		err = s.parseInto(r, &p.pr, nil)
		if err == nil {
			key, timeout, runner = p.pr.key(), p.pr.timeout(s.cfg.Limits), p
		}
	case epRepair:
		p := repairRunnerPool.Get().(*repairRunner)
		defer repairRunnerPool.Put(p)
		p.rr = RepairRequest{}
		err = s.parseInto(r, &p.rr.PlanRequest, &p.rr)
		if err == nil {
			key, timeout, runner = p.rr.key(), p.rr.timeout(s.cfg.Limits), p
		}
	}
	pSpan.End()
	if err != nil {
		s.cBadReqs.Inc()
		var ae *apiError
		if errors.As(err, &ae) {
			s.writeError(w, ae.status, ae.msg)
		} else {
			s.writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}

	if body, clen, ok := s.cache.Get(key); ok {
		s.cCacheHits.Inc()
		s.writePlan(w, body, clen, headerValHit)
		return
	}

	call, leader := s.flight.begin(key)
	if !leader {
		// Identical request already in flight: wait for its leader, but
		// never longer than this request's own deadline.
		s.cCoalesced.Inc()
		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
		select {
		case <-call.done:
			s.replayFlight(w, call)
		case <-deadline.C:
			s.cTimeouts.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded waiting for identical in-flight plan")
		case <-r.Context().Done():
			// Client hung up; the leader still completes and caches.
			s.writeError(w, http.StatusGatewayTimeout, "client cancelled")
		}
		return
	}

	// Leader: admit into the bounded pool. The deadline spans queue wait
	// plus execution, carried by the job context into the round loop; the
	// trace's span context rides along so the planner's core.deploy and
	// core.round spans land in this request's tree.
	ectx, eSpan := obs.StartSpanCtx(tctx, "execute")
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	ctx = obs.WithSpanContext(ctx, ectx)
	j := &job{ctx: ctx, runner: runner, done: make(chan jobResult, 1), tenant: r.Header.Get(tenantHeader)}
	admission := s.cfg.Flight.Shard(s.cfg.Workers)
	if err := s.submit(j); err != nil {
		eSpan.End()
		s.cRejected.Inc()
		admission.Record(s.uptime(), "admit.reject", -1, route)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		if errors.Is(err, errTenantOverloaded) {
			// The tenant's fair share is spoken for; followers of the same
			// key should not inherit a 429 another tenant earned, but
			// identical keys imply identical tenants in practice.
			s.flight.finish(key, call, nil, http.StatusTooManyRequests, err)
			s.writeError(w, http.StatusTooManyRequests, "tenant admission quota exhausted; retry later")
			return
		}
		s.flight.finish(key, call, nil, http.StatusServiceUnavailable, errOverloaded)
		s.writeError(w, http.StatusServiceUnavailable, "admission queue full; retry later")
		return
	}
	admission.Record(s.uptime(), "admit.ok", -1, route)
	res := <-j.done
	s.release(j)
	eSpan.End()
	switch {
	case res.err == nil:
		s.cCacheMisses.Inc()
		clen := s.cache.Put(key, res.body)
		s.flight.finish(key, call, res.body, http.StatusOK, nil)
		s.writePlan(w, res.body, clen, headerValMiss)
	case errors.Is(res.err, context.DeadlineExceeded):
		s.cTimeouts.Inc()
		s.flight.finish(key, call, nil, http.StatusGatewayTimeout, res.err)
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded while planning")
	case errors.Is(res.err, context.Canceled):
		// Base context cancelled: the server is being torn down.
		s.cErrors.Inc()
		s.flight.finish(key, call, nil, http.StatusServiceUnavailable, res.err)
		s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		status := http.StatusInternalServerError
		var ae *apiError
		if errors.As(res.err, &ae) {
			status = ae.status
		}
		if status >= 500 {
			s.cErrors.Inc()
		} else {
			s.cBadReqs.Inc()
		}
		s.flight.finish(key, call, nil, status, res.err)
		s.writeError(w, status, res.err.Error())
	}
}

// parseInto reads the request body into a pooled buffer and decodes it
// through the fast-path codec (stdlib fallback on a bail), then
// normalizes. rr is non-nil for /v1/repair, where the failed-ID list
// rides along and repair-specific validation applies.
func (s *Server) parseInto(r *http.Request, pr *PlanRequest, rr *RepairRequest) error {
	buf := jsonx.GetBuf()
	defer jsonx.PutBuf(buf)
	data, err := readBody(r.Body, buf)
	if err != nil {
		return err
	}
	if rr != nil {
		if err := decodeRepairRequest(data, rr); err != nil {
			return err
		}
		*rr, err = rr.normalize(s.cfg.Limits)
		return err
	}
	if err := decodePlanRequest(data, pr); err != nil {
		return err
	}
	*pr, err = pr.normalize(s.cfg.Limits)
	return err
}

var errOverloaded = errors.New("service overloaded")

// replayFlight serves a follower the leader's exact outcome.
func (s *Server) replayFlight(w http.ResponseWriter, call *flightCall) {
	if call.err != nil {
		if errors.Is(call.err, errOverloaded) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		s.writeError(w, call.status, call.err.Error())
		return
	}
	s.writePlan(w, call.body, nil, headerValCoalesced)
}

// writePlan serves the canonical response bytes. clen is the shared
// pre-rendered Content-Length value stored with the cache entry (nil
// means render it now — the miss and coalesced paths).
func (s *Server) writePlan(w http.ResponseWriter, body []byte, clen []string, cacheStatus []string) {
	h := w.Header()
	h["Content-Type"] = headerValJSON
	h[cacheStatusHeader] = cacheStatus
	if clen == nil {
		clen = []string{strconv.Itoa(len(body))}
	}
	h["Content-Length"] = clen
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// Preformatted bodies for the fixed error strings on hot method-check
// paths; everything else renders through the pooled append encoder.
// Byte-identical to the json.Marshal construction they replaced.
var (
	errBodyUsePost = []byte(`{"error":"use POST"}` + "\n")
	errBodyUseGet  = []byte(`{"error":"use GET"}` + "\n")
)

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header()["Content-Type"] = headerValJSON
	w.WriteHeader(status)
	switch msg {
	case "use POST":
		w.Write(errBodyUsePost)
	case "use GET":
		w.Write(errBodyUseGet)
	default:
		buf := jsonx.GetBuf()
		*buf = appendErrorBody((*buf)[:0], msg)
		w.Write(*buf)
		jsonx.PutBuf(buf)
	}
}
