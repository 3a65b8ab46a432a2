package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"decor/internal/admit"
	"decor/internal/jsonx"
	"decor/internal/obs"
)

const jsonContentType = "application/json; charset=utf-8"

// traceHeader carries the request's trace ID back to the client; feed it
// to /debug/traces?trace=<id> or decor-trace to see the span tree.
const traceHeader = "X-Decor-Trace"

// tenantHeader optionally attributes a request to a tenant for the
// labeled response counter, under obs.TenantLabels' cardinality cap.
const tenantHeader = "X-Decor-Tenant"

// maxTenantLen bounds the tenant header: a tenant keys the admission
// books, the session table and the response counter, so a longer one is
// refused (refuseLongTenant) before anything keys on it.
const maxTenantLen = 128

// cacheStatusHeader reports how a response was produced: "miss" (this
// request planned it) or "hit" (served from the plan cache). The body is
// byte-identical either way — only this header differs, which is why it
// is a header and not a body field.
const cacheStatusHeader = "X-Decor-Cache"

// Shared header values, assigned into the header map directly (keys are
// pre-canonicalized). http.Header.Set allocates a fresh one-element
// slice per call; these are written by the server and only read by
// net/http, so sharing is safe and the hot path pays zero allocations.
var (
	headerValJSON = []string{jsonContentType}
	headerValHit  = []string{"hit"}
	headerValMiss = []string{"miss"}
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

// respKey indexes the memoized labeled response counters. CounterL
// renders the series key on every call, so the server keeps its own
// resolved handle per combination — the map stays bounded by routes ×
// statuses × the capped tenant label set.
type respKey struct {
	route  string
	status int
	tenant string
}

// recordResponse bumps the labeled response counter for one request.
// A tenant over maxTenantLen, refused with 400, counts as "other".
func (s *Server) recordResponse(route string, status int, tenant string) {
	label := "other"
	if len(tenant) <= maxTenantLen {
		label = s.tenants.Label(tenant)
	}
	k := respKey{route: route, status: status, tenant: label}
	s.respMu.RLock()
	c := s.respCounters[k]
	s.respMu.RUnlock()
	if c == nil {
		c = s.cfg.Registry.CounterL(obs.ServeResponses, "route", k.route, "status", strconv.Itoa(k.status), "tenant", k.tenant)
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

// Unwrap lets http.ResponseController reach net/http's writer, as the
// NDJSON event handler's full-duplex switch must.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

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

// planCall holds one decoded /v1/plan or /v1/repair request while it is
// served.
type planCall struct {
	rr     RepairRequest // a plan uses rr.PlanRequest alone
	repair bool
	key    reqKey // the body's digest (readKeyed): its cache key
}

// tag is the endpoint tag of the call's key.
func (c *planCall) tag() byte {
	if c.repair {
		return keyTagRepair
	}
	return keyTagPlan
}

// execute plans the request on a private Deployment.
func (c *planCall) execute(ctx context.Context) ([]byte, error) {
	if c.repair {
		return executeRepair(ctx, c.rr)
	}
	return executePlan(ctx, c.rr.PlanRequest)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.cPlanReqs.Inc()
	s.servePlanLike(w, r, false)
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	s.cRepairReqs.Inc()
	s.servePlanLike(w, r, true)
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
// endpoints: parse (body digest, cache lookup, decode and validate on a
// miss), then the miss path: admission, deadline, plan, cache, response.
func (s *Server) servePlanLike(w http.ResponseWriter, r *http.Request, repair bool) {
	route := r.URL.Path
	// The root span's End also lands in the request histogram.
	root := s.cfg.Tracer.StartTrace(route, s.hRequestSeconds)
	tctx := root.Context(r.Context())
	tenant := r.Header.Get(tenantHeader)
	sw := s.getStatusWriter(w, route, tenant)
	defer putStatusWriter(sw) // registered first: runs after the metrics defer reads sw
	w = sw
	if id := root.TraceID(); id != 0 {
		setTraceHeader(w.Header(), id)
	}
	defer func() {
		root.End()
		if sw.finish() >= 500 {
			s.captureFlight()
		}
	}()

	if s.refuseLongTenant(w, tenant) {
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)

	// A body whose exact bytes already produced a cached plan is served
	// by their digest. Any other is decoded and normalized from the
	// pooled body buffer.
	c := &planCall{repair: repair}
	pSpan := obs.Start(tctx, "parse", nil)
	body, clen, err := s.parseInto(r, c)
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
	if body != nil {
		s.cCacheHits.Inc()
		s.writePlan(w, body, clen, headerValHit)
		return
	}

	s.serveMiss(w, tctx, route, tenant, c)
}

// serveMiss plans c under its own deadline and tenant, caches the plan
// and serves it. tctx carries the request's trace. The deadline starts
// now and bounds the wait for a run slot and the plan itself. It derives
// from the server's base context, not the request's: a forced shutdown
// cancels it, a client that hangs up does not, so the plan is still
// cached for the client's retry.
func (s *Server) serveMiss(w http.ResponseWriter, tctx context.Context, route, tenant string, c *planCall) {
	ctx, cancel := context.WithTimeout(s.baseCtx, c.rr.timeout(s.cfg.Limits))
	defer cancel()
	// The trace's span context rides along with the deadline, so the
	// planner's core.deploy and core.round spans land in this request's
	// tree.
	eSpan := obs.Start(tctx, "execute", nil)
	body, err := s.plan(eSpan.Context(ctx), route, tenant, c)
	eSpan.End()
	switch {
	case err == nil:
		s.cCacheMisses.Inc()
		cached, clen := s.cache.Put(c.key, body)
		s.writePlan(w, cached, clen, headerValMiss)
	case errors.Is(err, admit.ErrTenant):
		s.cRejected.Inc()
		s.refuse(w, http.StatusTooManyRequests, "tenant admission quota exhausted; retry later")
	case errors.Is(err, admit.ErrSaturated):
		s.cRejected.Inc()
		s.refuse(w, http.StatusServiceUnavailable, "admission queue full; retry later")
	case errors.Is(err, admit.ErrClosed):
		// The drain closed the gate.
		s.cRejected.Inc()
		s.refuse(w, http.StatusServiceUnavailable, errShuttingDown.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.cTimeouts.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded while planning")
	case errors.Is(err, context.Canceled):
		// The base context was cancelled: the drain's budget ran out.
		s.cErrors.Inc()
		s.refuse(w, http.StatusServiceUnavailable, errShuttingDown.Error())
	default:
		status := http.StatusInternalServerError
		var ae *apiError
		if errors.As(err, &ae) {
			status = ae.status
		}
		if status >= 500 {
			s.cErrors.Inc()
		} else {
			s.cBadReqs.Inc()
		}
		s.writeError(w, status, err.Error())
	}
}

// refuse answers a plan the gate or the drain turned away with status,
// msg and the Retry-After a client can back off by.
func (s *Server) refuse(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.writeError(w, status, msg)
}

// plan runs c through the gate on the calling goroutine: admission for
// tenant, a run slot within ctx's deadline, then the plan itself. The
// gate's refusals and ctx's error come back unwrapped.
func (s *Server) plan(ctx context.Context, route, tenant string, c *planCall) ([]byte, error) {
	if err := s.gate.Enter(tenant); err != nil {
		s.cfg.Flight.Record(s.uptime(), "admit.reject", -1, route)
		return nil, err
	}
	defer s.gate.Leave(tenant)
	s.cfg.Flight.Record(s.uptime(), "admit.ok", -1, route)
	enq := time.Now()
	s.gQueueDepth.Add(1)
	err := s.gate.Run(ctx)
	s.gQueueDepth.Add(-1)
	if err != nil {
		s.cfg.Flight.Record(s.uptime(), "plan.expired", -1, err.Error())
		return nil, err
	}
	defer s.gate.Done()
	s.gInflight.Add(1)
	defer s.gInflight.Add(-1)
	span := obs.Start(ctx, "plan.run", s.hPlanSeconds)
	if span.TraceID() != 0 {
		span.SetAttr(fmt.Sprintf("queue_wait_ms=%.2f", time.Since(enq).Seconds()*1000))
	}
	body, err := c.execute(span.Context(ctx))
	if err != nil {
		s.cfg.Flight.Record(s.uptime(), "plan.err", -1, err.Error())
	} else {
		s.cfg.Flight.Record(s.uptime(), "plan.done", -1, fmt.Sprintf("bytes=%d", len(body)))
	}
	s.ewmaPlanMS.blend(span.End().Seconds() * 1000)
	return body, err
}

// parseInto reads the request body into a pooled buffer and keys its
// exact bytes into c.key. When that key holds a cached plan it returns
// the plan's body and Content-Length value; otherwise it decodes and
// normalizes the body into c and returns a nil body. A repair's
// failed-ID list rides along, and repair-specific validation applies.
func (s *Server) parseInto(r *http.Request, c *planCall) ([]byte, []string, error) {
	buf := jsonx.GetBuf()
	defer jsonx.PutBuf(buf)
	data, key, err := readKeyed(r.Body, buf, c.tag())
	if err != nil {
		return nil, nil, err
	}
	c.key = key
	if body, clen, ok := s.cache.Get(key); ok {
		return body, clen, nil
	}
	if c.repair {
		if err := decodeRequest(data, &c.rr.PlanRequest, &c.rr.Failed, nil); err != nil {
			return nil, nil, err
		}
		c.rr, err = c.rr.normalize(s.cfg.Limits)
		return nil, nil, err
	}
	if err := decodeRequest(data, &c.rr.PlanRequest, nil, nil); err != nil {
		return nil, nil, err
	}
	c.rr.PlanRequest, err = c.rr.PlanRequest.normalize(s.cfg.Limits)
	return nil, nil, err
}

// refuseLongTenant answers 400 to a request whose tenant is longer than
// maxTenantLen, and reports whether it did.
func (s *Server) refuseLongTenant(w http.ResponseWriter, tenant string) bool {
	if len(tenant) <= maxTenantLen {
		return false
	}
	s.cBadReqs.Inc()
	s.writeError(w, http.StatusBadRequest, fmt.Sprintf("%s must be at most %d bytes", tenantHeader, maxTenantLen))
	return true
}

// writePlan serves the canonical response bytes with clen, the cache
// entry's shared Content-Length value.
func (s *Server) writePlan(w http.ResponseWriter, body []byte, clen []string, cacheStatus []string) {
	h := w.Header()
	h["Content-Type"] = headerValJSON
	h[cacheStatusHeader] = cacheStatus
	h["Content-Length"] = clen
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// writeError serves {"error": msg} through the pooled append encoder.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header()["Content-Type"] = headerValJSON
	w.WriteHeader(status)
	buf := jsonx.GetBuf()
	*buf = appendErrorBody((*buf)[:0], msg)
	w.Write(*buf)
	jsonx.PutBuf(buf)
}
