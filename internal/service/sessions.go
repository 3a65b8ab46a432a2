package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"decor/internal/jsonx"
	"decor/internal/session"
)

// Session HTTP API (DESIGN.md §14). A field session is a long-lived
// stateful counterpart to the stateless /v1/plan and /v1/repair
// endpoints: the server keeps the deployment (and its warm incremental
// planner state) resident between requests, so a failure event costs an
// incremental delta repair instead of a full field rebuild.
//
//	POST   /v1/fields              create a session; body = plan request + field_id
//	POST   /v1/fields/{id}/events  stream failure events in (NDJSON), deltas out
//	GET    /v1/fields/{id}/stream  SSE delta feed (?from_seq=N replays the ring)
//	GET    /v1/fields/{id}         session metadata
//	DELETE /v1/fields/{id}         drop the session
//
// Sessions are tenant-scoped by the X-Decor-Tenant header: one tenant
// can never address (or even detect) another tenant's fields, and
// per-tenant quotas answer 429 + Retry-After without disturbing anyone
// else.

// FieldRequest is the body of POST /v1/fields: the same field
// description as /v1/plan plus the client-chosen field identifier.
type FieldRequest struct {
	PlanRequest
	FieldID string `json:"field_id"`
}

// maxFieldIDLen bounds the client-chosen identifier: it is a map key, a
// hash input and a log token, not a document.
const maxFieldIDLen = 128

// spec converts the normalized request into the session's canonical
// field description.
func (fr FieldRequest) spec() session.Spec {
	sensors := make([]session.Sensor, len(fr.Sensors))
	for i, s := range fr.Sensors {
		sensors[i] = session.Sensor{ID: *s.ID, X: s.X, Y: s.Y}
	}
	return session.Spec{
		FieldSide: fr.FieldSide,
		K:         fr.K,
		Rs:        fr.Rs,
		Rc:        fr.Rc,
		NumPoints: fr.NumPoints,
		Generator: fr.Generator,
		Seed:      fr.Seed,
		Sensors:   sensors,
		Scatter:   fr.Scatter,
		Method:    fr.Method,
	}
}

// sessionStatus maps the session package's sentinel errors, and the
// drain's errShuttingDown, onto the HTTP status and message the API
// documents. Non-sentinel errors are
// client errors: the only way to produce one on an established session
// is to reference sensors that do not exist. A record that fails to
// restore is the server's fault.
func sessionStatus(err error) (int, string) {
	switch {
	case errors.Is(err, session.ErrNotFound):
		return http.StatusNotFound, "field not found"
	case errors.Is(err, session.ErrExists):
		return http.StatusConflict, "field already exists"
	case errors.Is(err, session.ErrSubscribed):
		return http.StatusConflict, err.Error()
	case errors.Is(err, session.ErrTenantSessions), errors.Is(err, session.ErrTenantBusy):
		return http.StatusTooManyRequests, err.Error()
	case errors.Is(err, session.ErrSaturated), errors.Is(err, session.ErrClosed), errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, session.ErrRestore):
		return http.StatusInternalServerError, err.Error()
	}
	return http.StatusBadRequest, err.Error()
}

// sessionRetryAfter is the delay, in seconds, after which a client should
// retry a session call refused with 429 or 503, and 0 for any other
// error. writeSessionError sends it as Retry-After; a refusal after
// deltas have been streamed carries it in-band.
func (s *Server) sessionRetryAfter(err error) int {
	if status, _ := sessionStatus(err); status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return s.retryAfterSeconds()
	}
	return 0
}

// writeSessionError answers a refused session call with its status,
// and with Retry-After when the client should come back later.
func (s *Server) writeSessionError(w http.ResponseWriter, err error) {
	if n := s.sessionRetryAfter(err); n > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(n))
	}
	status, msg := sessionStatus(err)
	s.writeError(w, status, msg)
}

// withSessionMetrics wraps a session handler with the same response
// accounting as the plan path, under an explicit low-cardinality route
// label (the raw path would explode on field IDs), and the same refusal
// of an over-long tenant.
func (s *Server) withSessionMetrics(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(tenantHeader)
		sw := s.getStatusWriter(w, route, tenant)
		defer putStatusWriter(sw)
		if !s.refuseLongTenant(sw, tenant) {
			h(sw, r)
		}
		if sw.finish() >= 500 {
			s.captureFlight()
		}
	}
}

// handleFieldCreate serves POST /v1/fields.
func (s *Server) handleFieldCreate(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(tenantHeader)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)
	buf := jsonx.GetBuf()
	defer jsonx.PutBuf(buf)
	var fr FieldRequest
	data, err := readBody(r.Body, buf)
	if err == nil {
		err = decodeRequest(data, &fr.PlanRequest, nil, &fr.FieldID)
	}
	if err != nil {
		s.badSessionRequest(w, err)
		return
	}
	if fr.FieldID == "" || len(fr.FieldID) > maxFieldIDLen {
		s.cBadReqs.Inc()
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("field_id must be 1..%d bytes", maxFieldIDLen))
		return
	}
	pr, err := fr.PlanRequest.normalize(s.cfg.Limits)
	if err != nil {
		s.badSessionRequest(w, err)
		return
	}
	fr.PlanRequest = pr

	_, delta, err := s.sessions.Create(tenant, fr.FieldID, fr.spec())
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	// Encode before writing the status line, so an encode failure can
	// still surface as a 500 (the old Encoder call silently dropped it).
	body, err := delta.AppendJSON((*buf)[:0])
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, '\n')
	*buf = body
	w.Header().Set("Content-Type", jsonContentType)
	w.Header().Set("Location", "/v1/fields/"+fr.FieldID)
	w.WriteHeader(http.StatusCreated)
	w.Write(body)
}

// badSessionRequest writes a 4xx for a request that failed validation.
func (s *Server) badSessionRequest(w http.ResponseWriter, err error) {
	s.cBadReqs.Inc()
	var ae *apiError
	if errors.As(err, &ae) {
		s.writeError(w, ae.status, ae.msg)
		return
	}
	s.writeError(w, http.StatusBadRequest, err.Error())
}

// writeInbandError reports a failure after deltas have already been
// streamed: the status line is gone, so the error travels in-band as the
// stream's last object. A refusal the client should retry later carries
// its Retry-After delay as "retry_after" (seconds); without one the
// object is appendErrorBody's.
func writeInbandError(w http.ResponseWriter, buf *[]byte, msg string, retryAfter int) {
	b := append((*buf)[:0], `{"error":`...)
	b = jsonx.AppendString(b, msg)
	if retryAfter > 0 {
		b = append(b, `,"retry_after":`...)
		b = jsonx.AppendInt(b, int64(retryAfter))
	}
	*buf = append(b, '}', '\n')
	w.Write(*buf)
}

// streamSet holds the open field streams, so a drain can wake each one:
// an NDJSON events stream blocked reading its body, and an SSE feed
// blocked writing to a client that stopped reading. Once closed it
// admits no stream.
type streamSet struct {
	mu     sync.Mutex
	closed bool
	open   map[http.ResponseWriter]bool // true: an SSE feed
}

// add registers an open stream, or reports false once the drain began.
func (ss *streamSet) add(w http.ResponseWriter, sse bool) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return false
	}
	if ss.open == nil {
		ss.open = map[http.ResponseWriter]bool{}
	}
	ss.open[w] = sse
	return true
}

func (ss *streamSet) remove(w http.ResponseWriter) {
	ss.mu.Lock()
	delete(ss.open, w)
	ss.mu.Unlock()
}

func (ss *streamSet) ended() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.closed
}

// close refuses further streams and expires a deadline of every open
// one: an events stream's read deadline, so a body read blocked in it
// returns at once and the stream can still write its answer, and an SSE
// feed's write deadline, so a write blocked in it does. A stream
// removes itself under the same lock before its handler returns, so
// no writer here outlives its request.
func (ss *streamSet) close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.closed = true
	for w, sse := range ss.open {
		rc := http.NewResponseController(w)
		if sse {
			_ = rc.SetWriteDeadline(time.Unix(1, 0))
		} else {
			_ = rc.SetReadDeadline(time.Unix(1, 0))
		}
	}
}

// EndStreams ends the field streams for a drain: closing the session
// manager ends every SSE subscription, an SSE feed blocked writing to a
// client that stopped reading has its write cut, and every open NDJSON
// event stream is woken from its body read to answer "server shutting
// down". Plans and repairs in flight are untouched. http.Server.Shutdown
// waits for these handlers and nothing else ends them, so register
// this with http.Server.RegisterOnShutdown. Idempotent.
func (s *Server) EndStreams() {
	s.sessions.Close()
	s.streams.close()
}

// errShuttingDown refuses an events stream the drain ended.
var errShuttingDown = errors.New("server shutting down")

// refuseStream answers a refused events stream: with the refusal's
// status before its first delta, in-band after.
func (s *Server) refuseStream(w http.ResponseWriter, out *[]byte, wrote bool, err error) {
	if !wrote {
		s.writeSessionError(w, err)
		return
	}
	writeInbandError(w, out, err.Error(), s.sessionRetryAfter(err))
}

// handleFieldEvents serves POST /v1/fields/{id}/events: a stream of
// NDJSON failure events in, one NDJSON delta per event out, flushed as
// each repair completes. A single JSON object (no trailing newline)
// works too, so `curl -d '{"failed":[3]}'` behaves as expected.
//
// Events pass through the pooled eventScanner: each object is lexed out
// of a reused read buffer and parsed into a reused failed-ID scratch
// slice (the session manager copies what it retains), so a steady event
// stream allocates nothing per event on the decode side.
func (s *Server) handleFieldEvents(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(tenantHeader)
	id := r.PathValue("id")
	// Events are read while deltas are written. Over HTTP/1.1, net/http
	// would otherwise drain the body before the first delta, and a client
	// waiting for each delta before its next event would wait forever.
	// HTTP/2 is always full duplex, so the error is not worth handling.
	_ = http.NewResponseController(w).EnableFullDuplex()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)
	sc := newEventScanner(r.Body)
	defer sc.close()
	out := jsonx.GetBuf()
	defer jsonx.PutBuf(out)

	flusher, _ := w.(http.Flusher)
	// A stream that ends early (refused by a drain, a bad event, a
	// refusal, an in-band error) leaves body unread. Under full duplex
	// net/http drains it after the handler, once it has stopped watching
	// the connection, and the drain's end of body then panics the
	// connection's next request. So the answer goes out first and the
	// rest is drained here (net/http reads at most 256 KB of it before it
	// closes the connection instead). The stream stays in s.streams until
	// then, so a drain also wakes this read.
	defer func() {
		if sc.err != io.EOF {
			if flusher != nil {
				flusher.Flush()
			}
			r.Body.Close()
		}
		s.streams.remove(w)
	}()
	if !s.streams.add(w, false) {
		s.writeSessionError(w, errShuttingDown)
		return
	}
	wrote := false
	for {
		failed, err := sc.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if s.streams.ended() {
				s.refuseStream(w, out, wrote, errShuttingDown)
				return
			}
			if ae := tooLarge(err); ae != nil {
				err = ae
			} else {
				err = badRequest("invalid event JSON: %v", err)
			}
			if !wrote {
				s.badSessionRequest(w, err)
				return
			}
			// Mid-stream garbage after successful deltas: the status line
			// is gone, so report in-band and hang up.
			writeInbandError(w, out, err.Error(), 0)
			return
		}
		if len(failed) == 0 {
			err := badRequest("event must name at least one failed sensor")
			if !wrote {
				s.badSessionRequest(w, err)
			} else {
				writeInbandError(w, out, err.Error(), 0)
			}
			return
		}
		delta, err := s.sessions.Apply(tenant, id, failed)
		if err != nil {
			s.refuseStream(w, out, wrote, err)
			return
		}
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			wrote = true
		}
		body, err := delta.AppendJSON((*out)[:0])
		if err != nil {
			return // non-finite delta: unrepresentable, hang up (was Encoder's silent drop)
		}
		body = append(body, '\n')
		*out = body
		w.Write(body)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if !wrote {
		s.badSessionRequest(w, badRequest("event stream carried no events"))
	}
}

// handleFieldStream serves GET /v1/fields/{id}/stream as Server-Sent
// Events: ring deltas with Seq >= from_seq replay immediately, then
// every live delta follows as it is planned. The stream ends when the
// client disconnects, the session is dropped, or the subscriber falls
// behind the ring (reconnect with from_seq to resume).
func (s *Server) handleFieldStream(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(tenantHeader)
	id := r.PathValue("id")
	var fromSeq uint64
	if raw := r.URL.Query().Get("from_seq"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.badSessionRequest(w, badRequest("from_seq must be a non-negative integer"))
			return
		}
		fromSeq = v
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	ch, cancel, err := s.sessions.Subscribe(tenant, id, fromSeq)
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	defer cancel()
	if !s.streams.add(w, true) {
		s.writeSessionError(w, errShuttingDown)
		return
	}
	// A drain cuts a write blocked on a client that stopped reading by
	// expiring the write deadline. It may also expire it just after the
	// feed ended, so it is lifted once the stream has left the set: the
	// response's end still reaches a client that reads.
	defer func() {
		s.streams.remove(w)
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// One pooled frame buffer serves the whole subscription: each delta
	// renders as a complete SSE frame (byte-identical to the old
	// Marshal+Fprintf form) and goes out in a single Write.
	buf := jsonx.GetBuf()
	defer jsonx.PutBuf(buf)
	for {
		select {
		case delta, open := <-ch:
			if !open {
				return // dropped session, lagging subscriber, or shutdown
			}
			frame, err := appendSSEFrame((*buf)[:0], &delta)
			if err != nil {
				return
			}
			*buf = frame
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// appendSSEFrame renders one delta as a complete SSE frame:
// "id: <seq>\nevent: delta\ndata: <json>\n\n".
func appendSSEFrame(b []byte, delta *session.Delta) ([]byte, error) {
	b = append(b, "id: "...)
	b = jsonx.AppendUint(b, delta.Seq)
	b = append(b, "\nevent: delta\ndata: "...)
	b, err := delta.AppendJSON(b)
	if err != nil {
		return b, err
	}
	return append(b, '\n', '\n'), nil
}

// handleFieldGet serves GET /v1/fields/{id}: session metadata, without
// restoring an evicted session.
func (s *Server) handleFieldGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.sessions.Get(r.Header.Get(tenantHeader), r.PathValue("id"))
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	buf := jsonx.GetBuf()
	defer jsonx.PutBuf(buf)
	body, err := info.AppendJSON((*buf)[:0])
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, '\n')
	*buf = body
	w.Header().Set("Content-Type", jsonContentType)
	w.Write(body)
}

// handleFieldDelete serves DELETE /v1/fields/{id}.
func (s *Server) handleFieldDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.Drop(r.Header.Get(tenantHeader), r.PathValue("id")); err != nil {
		s.writeSessionError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
