package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

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

// EventRequest is one failure event on the NDJSON event stream.
type EventRequest struct {
	Failed []int `json:"failed"`
}

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

// Sessions exposes the field-session manager (decor-load drives it
// directly in-process for its session soak mode).
func (s *Server) Sessions() *session.Manager { return s.sessions }

// writeSessionError maps the session package's sentinel errors onto the
// HTTP statuses the API documents. Non-sentinel errors are client
// errors: the only way to produce one on an established session is to
// reference sensors that do not exist.
func (s *Server) writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrNotFound):
		s.writeError(w, http.StatusNotFound, "field not found")
	case errors.Is(err, session.ErrExists):
		s.writeError(w, http.StatusConflict, "field already exists")
	case errors.Is(err, session.ErrSubscribed):
		s.writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, session.ErrTenantSessions), errors.Is(err, session.ErrTenantBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, session.ErrSaturated), errors.Is(err, session.ErrClosed):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.writeError(w, http.StatusBadRequest, err.Error())
	}
}

// withSessionMetrics wraps a session handler with the same response
// accounting as the plan path, under an explicit low-cardinality route
// label (the raw path would explode on field IDs).
func (s *Server) withSessionMetrics(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := s.getStatusWriter(w, route, r.Header.Get(tenantHeader))
		defer putStatusWriter(sw)
		h(sw, r)
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
		err = decodeFieldRequest(data, &fr)
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
// stream's last object. Byte-identical to the json.Encoder construction
// it replaced.
func writeInbandError(w http.ResponseWriter, buf *[]byte, msg string) {
	*buf = appendErrorBody((*buf)[:0], msg)
	w.Write(*buf)
}

// handleFieldEvents serves POST /v1/fields/{id}/events: a stream of
// NDJSON failure events in, one NDJSON delta per event out, flushed as
// each repair completes. A single JSON object (no trailing newline)
// works too, so `curl -d '{"failed":[3]}'` behaves as expected.
//
// Events pass through the pooled eventScanner: each object is lexed out
// of a reused read buffer and fast-parsed into a reused failed-ID
// scratch slice (the session manager copies what it retains), so a
// steady event stream allocates nothing per event on the decode side.
func (s *Server) handleFieldEvents(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(tenantHeader)
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)
	sc := newEventScanner(r.Body)
	defer sc.close()
	out := jsonx.GetBuf()
	defer jsonx.PutBuf(out)

	flusher, _ := w.(http.Flusher)
	wrote := false
	for {
		failed, err := sc.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if !wrote {
				s.badSessionRequest(w, badRequest("invalid event JSON: %v", err))
				return
			}
			// Mid-stream garbage after successful deltas: the status line
			// is gone, so report in-band and hang up.
			writeInbandError(w, out, fmt.Sprintf("invalid event JSON: %v", err))
			return
		}
		if len(failed) == 0 {
			err := badRequest("event must name at least one failed sensor")
			if !wrote {
				s.badSessionRequest(w, err)
			} else {
				writeInbandError(w, out, err.Error())
			}
			return
		}
		delta, err := s.sessions.Apply(tenant, id, failed)
		if err != nil {
			if !wrote {
				s.writeSessionError(w, err)
			} else {
				writeInbandError(w, out, err.Error())
			}
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
