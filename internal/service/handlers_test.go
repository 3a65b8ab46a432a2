package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decor/internal/obs"
)

func (s *testServer) get(t *testing.T, path string) (int, http.Header, []byte) {
	t.Helper()
	return s.do(t, http.MethodGet, path, "", "")
}

// TestDebugFlightHandler exercises /debug/flight end to end: 200, the
// JSON content type, and a body that parses back into the dump shape —
// including after a 5xx has populated the last_5xx snapshot.
func TestDebugFlightHandler(t *testing.T) {
	s := newTestServer(t, Config{})
	status, hdr, body := s.get(t, "/debug/flight")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != jsonContentType {
		t.Errorf("content type %q, want %q", ct, jsonContentType)
	}
	var dump struct {
		Live    []obs.FlightEvent `json:"live"`
		Last5xx []obs.FlightEvent `json:"last_5xx"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, body)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Errorf("flight dump should end with a newline")
	}

	// Wrong method: the allow-list error path.
	status, _, body = s.post(t, "/debug/flight", "")
	if status != http.StatusMethodNotAllowed || strings.TrimSpace(string(body)) != `{"error":"use GET"}` {
		t.Errorf("POST /debug/flight = %d %s", status, body)
	}
}

// TestWriteErrorEscaping drives writeError through a live recorder for a
// table of messages needing JSON escaping: each body must be exactly
// what json.Marshal + newline produced before the codec swap.
func TestWriteErrorEscaping(t *testing.T) {
	s := newTestServer(t, Config{})
	msgs := []string{
		"use POST",
		"use GET",
		`unknown generator "h<é>lton & friends"`,
		"multi\nline\terror",
		"invalid utf8 \xff here",
	}
	for _, msg := range msgs {
		rec := httptest.NewRecorder()
		s.svc.writeError(rec, http.StatusBadRequest, msg)
		want, _ := json.Marshal(struct {
			Error string `json:"error"`
		}{Error: msg})
		want = append(want, '\n')
		if got := rec.Body.String(); got != string(want) {
			t.Errorf("writeError(%q):\n got %q\nwant %q", msg, got, want)
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("writeError(%q) status = %d", msg, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != jsonContentType {
			t.Errorf("writeError(%q) content type = %q", msg, ct)
		}
	}
}

// TestMetricsExposesHeapAllocsGauge: the /metrics wrapper refreshes the
// runtime allocation gauge before rendering, so decor-load can derive
// allocs_per_request from consecutive scrapes.
func TestMetricsExposesHeapAllocsGauge(t *testing.T) {
	s := newTestServer(t, Config{})
	_, _, body := s.get(t, "/metrics")
	line := ""
	for _, l := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(l, obs.ServeHeapAllocs+" ") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("scrape missing %s:\n%s", obs.ServeHeapAllocs, body)
	}
	if strings.HasSuffix(line, " 0") {
		t.Errorf("heap alloc gauge should be non-zero after serving a scrape: %q", line)
	}
}
