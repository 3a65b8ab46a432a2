package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"decor/internal/admit"
	"decor/internal/obs"
)

// smallRepair is a repair the grid planner restores in a few
// milliseconds.
const smallRepair = `{"field_side":50,"k":1,"rs":6,"num_points":400,"seed":3,` +
	`"sensors":[{"id":10,"x":10,"y":10},{"id":11,"x":40,"y":40},{"id":12,"x":25,"y":25}],` +
	`"method":"grid-small","failed":[10,12]}`

// Len returns the current entry count.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cached reports whether the server's plan cache holds an entry for
// body sent to path, without touching the entry's recency.
func (s *testServer) cached(t *testing.T, path, body string) bool {
	t.Helper()
	tag := keyTagPlan
	if path == "/v1/repair" {
		tag = keyTagRepair
	}
	var buf []byte
	_, key, err := readKeyed(strings.NewReader(body), &buf, tag)
	if err != nil {
		t.Fatal(err)
	}
	c := s.svc.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// postCache posts body to path and returns its status, X-Decor-Cache
// value and body.
func (s *testServer) postCache(t *testing.T, path, body string) (int, string, []byte) {
	t.Helper()
	status, hdr, b := s.post(t, path, body)
	return status, hdr.Get(cacheStatusHeader), b
}

// TestRawAliasesArePerEndpoint: the raw bytes' digest, the cache key,
// is per endpoint, so the same bytes sent to /v1/plan and to /v1/repair
// never share a cache entry. A plan body sent to /v1/repair is a repair
// with no failures: a miss of its own, though the plan's entry exists.
// A repair body stays a 400 on /v1/plan, whose requests have no failed
// list, after /v1/repair has cached it.
func TestRawAliasesArePerEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	plan := planBody(21)
	for _, step := range []struct{ path, body, want string }{
		{"/v1/plan", plan, "miss"},
		{"/v1/plan", plan, "hit"},
		{"/v1/repair", plan, "miss"},
		{"/v1/repair", plan, "hit"},
		{"/v1/repair", smallRepair, "miss"},
		{"/v1/plan", smallRepair, ""},
		{"/v1/repair", smallRepair, "hit"},
		{"/v1/plan", smallRepair, ""},
	} {
		status, cache, body := s.postCache(t, step.path, step.body)
		if step.want == "" {
			if status != http.StatusBadRequest || !strings.Contains(string(body), `unknown key \"failed\"`) {
				t.Errorf("repair body on %s: %d %s, want 400 naming the failed key", step.path, status, body)
			}
			continue
		}
		if status != http.StatusOK || cache != step.want {
			t.Errorf("%s: status %d, %s %q; want 200, %q", step.path, status, cacheStatusHeader, cache, step.want)
		}
	}
	for _, e := range []struct {
		path, body string
		want       bool
	}{
		{"/v1/plan", plan, true},
		{"/v1/repair", plan, true},
		{"/v1/repair", smallRepair, true},
		{"/v1/plan", smallRepair, false},
	} {
		if got := s.cached(t, e.path, e.body); got != e.want {
			t.Errorf("%s %.30s…: cached %v, want %v", e.path, e.body, got, e.want)
		}
	}
	if n := s.svc.cache.Len(); n != 3 {
		t.Errorf("%d entries, want 3", n)
	}
}

// TestRefusedBodiesAreNeverAliased: a body that gets a 400, a 413 or a
// 504, or whose plan fails, leaves no cache entry under its bytes, so
// its next request is refused, or planned, as the first one was.
func TestRefusedBodiesAreNeverAliased(t *testing.T) {
	g := admit.New(1)
	s := newTestServerGate(t, Config{Limits: Limits{MaxBodyBytes: 1024}}, g)
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"invalid", "/v1/plan", `{"field_side":50,"k":0,"rs":4}`, http.StatusBadRequest},
		{"unknown failed id", "/v1/repair", `{"field_side":50,"k":1,"rs":6,"num_points":400,"sensors":[{"x":10,"y":10}],"failed":[5]}`, http.StatusBadRequest},
		{"oversized", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"seed":1` + strings.Repeat(" ", 1024) + `}`, http.StatusRequestEntityTooLarge},
	} {
		status, _, first := s.post(t, tc.path, tc.body)
		again, _, second := s.post(t, tc.path, tc.body)
		if status != tc.status || again != tc.status || !bytes.Equal(first, second) {
			t.Errorf("%s: %d %s then %d %s; want %d twice, same body", tc.name, status, first, again, second, tc.status)
		}
		if n := s.svc.cache.Len(); n != 0 || s.cached(t, tc.path, tc.body) {
			t.Errorf("%s: %d entries; want none", tc.name, n)
		}
	}

	// A 504: the plan's 300-ms budget runs out while the only run slot
	// is held.
	timed := `{"field_side":50,"k":2,"rs":4,"num_points":500,"seed":64,"scatter":40,"method":"centralized","timeout_ms":300}`
	release := holdSlot(t, g)
	status, _, first := s.post(t, "/v1/plan", timed)
	release()
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out plan: %d %s, want 504", status, first)
	}
	if n := s.svc.cache.Len(); n != 0 {
		t.Errorf("after a 504: %d entries; want none", n)
	}
	// Sent again, it is planned, or runs out of its budget again on a
	// slow host; either way it is not served from the cache.
	status, cache, body := s.postCache(t, "/v1/plan", timed)
	if !(status == http.StatusOK && cache == "miss") && status != http.StatusGatewayTimeout {
		t.Errorf("the 504's body again: %d, %s %q, %s; want a 200 miss or a 504", status, cacheStatusHeader, cache, body)
	}

	// A failed plan: no parsed request names an unknown generator, so
	// planning one fails after validation.
	failing := planBody(65)
	c := s.parseMiss(t, failing)
	c.rr.Generator = "dice"
	rec := httptest.NewRecorder()
	s.svc.serveMiss(rec, context.Background(), "/v1/plan", "", c)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed plan: %d %s, want 500", rec.Code, rec.Body)
	}
	want := 0 // the 504 body's entry, if its second request was planned
	if status == http.StatusOK {
		want = 1
	}
	if n, cached := s.svc.cache.Len(), s.cached(t, "/v1/plan", failing); n != want || cached {
		t.Errorf("after a failed plan: %d entries (its body's among them: %v); want %d, not its", n, cached, want)
	}
}

// TestEachEncodingIsItsOwnEntry: the cache keys a request by its exact
// bytes, so each encoding of one request (another key order,
// whitespace, a timeout_ms, explicit instead of implicit IDs, defaults
// spelled out) is planned once, a miss, then hits an entry of its own.
// Decoding, validation and planning are deterministic, so every reply
// carries the same bytes.
func TestEachEncodingIsItsOwnEntry(t *testing.T) {
	s := newTestServer(t, Config{})
	base := `{"field_side":50,"k":2,"rs":4,"num_points":500,"seed":24,` +
		`"sensors":[{"x":10,"y":10},{"x":40,"y":40}],"scatter":40,"method":"centralized"}`
	encodings := []struct{ name, body string }{
		{"base", base},
		{"key order", `{"method":"centralized","scatter":40,"sensors":[{"y":10,"x":10},{"y":40,"x":40}],` +
			`"seed":24,"num_points":500,"rs":4,"k":2,"field_side":50}`},
		{"whitespace", strings.ReplaceAll(base, ",", ",\n  ")},
		{"timeout_ms", `{"timeout_ms":20000,` + base[1:]},
		{"explicit ids", strings.NewReplacer(`{"x":10`, `{"id":0,"x":10`, `{"x":40`, `{"id":1,"x":40`).Replace(base)},
		{"defaults spelled out", `{"rc":8,"generator":"halton",` + base[1:]},
	}
	var first []byte
	for i, enc := range encodings {
		for _, want := range []string{"miss", "hit"} {
			status, cache, body := s.postCache(t, "/v1/plan", enc.body)
			if status != http.StatusOK || cache != want {
				t.Errorf("%s: %d, %s %q; want 200, %q", enc.name, status, cacheStatusHeader, cache, want)
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s (%s) differs from the first reply:\n%s\nvs\n%s", enc.name, want, body, first)
			}
		}
		if n, own := s.svc.cache.Len(), s.cached(t, "/v1/plan", enc.body); n != i+1 || !own {
			t.Errorf("after %s: %d entries (its own among them: %v); want %d", enc.name, n, own, i+1)
		}
	}
	n := int64(len(encodings))
	if hits, misses := s.counter(obs.ServeCacheHits), s.counter(obs.ServeCacheMisses); hits != n || misses != n {
		t.Errorf("hits %d, misses %d; want %d of each", hits, misses, n)
	}
}

// TestEveryDeliveryPathServesTheSameBytes: on both endpoints, the miss
// that plans a body and the hit that finds its plan serve one byte
// string under the cache entry's Content-Length, and X-Decor-Cache names
// each.
func TestEveryDeliveryPathServesTheSameBytes(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, e := range []struct{ path, body string }{{"/v1/plan", planBody(23)}, {"/v1/repair", smallRepair}} {
		var first []byte
		for _, want := range []string{"miss", "hit"} {
			status, hdr, body := s.post(t, e.path, e.body)
			if status != http.StatusOK || hdr.Get(cacheStatusHeader) != want {
				t.Errorf("%s %s: %d %q, want 200 %q", e.path, want, status, hdr.Get(cacheStatusHeader), want)
			}
			if clen := hdr.Get("Content-Length"); clen != strconv.Itoa(len(body)) {
				t.Errorf("%s %s: Content-Length %s for a %d-byte body", e.path, want, clen, len(body))
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s: the hit differs from the miss:\n%s\nvs\n%s", e.path, body, first)
			}
		}
	}
}
