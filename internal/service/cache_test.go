package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"decor/internal/admit"
	"decor/internal/obs"
)

// smallRepair is a repair the grid planner restores in a few
// milliseconds.
const smallRepair = `{"field_side":50,"k":1,"rs":6,"num_points":400,"seed":3,` +
	`"sensors":[{"id":10,"x":10,"y":10},{"id":11,"x":40,"y":40},{"id":12,"x":25,"y":25}],` +
	`"method":"grid-small","failed":[10,12]}`

// rawKeyOf is the raw digest the server keys body by on path.
func rawKeyOf(t *testing.T, path, body string) reqKey {
	t.Helper()
	tag := keyTagPlan
	if path == "/v1/repair" {
		tag = keyTagRepair
	}
	var buf []byte
	_, raw, err := readKeyed(strings.NewReader(body), &buf, tag)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// aliases returns how many aliases the server's plan cache holds and
// whether body, sent to path, is one of them.
func (s *testServer) aliases(t *testing.T, path, body string) (int, bool) {
	t.Helper()
	raw := rawKeyOf(t, path, body)
	c := s.svc.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.raw[raw]
	return len(c.raw), ok
}

// postCache posts body to path and returns its status, X-Decor-Cache
// value and body.
func (s *testServer) postCache(t *testing.T, path, body string) (int, string, []byte) {
	t.Helper()
	status, hdr, b := s.post(t, path, body)
	return status, hdr.Get(cacheStatusHeader), b
}

// TestRawAliasesArePerEndpoint: the same bytes sent to /v1/plan and to
// /v1/repair are two requests, so they never share an alias. A plan
// body sent to /v1/repair is a repair with no failures: a miss of its
// own, though the plan's alias exists. A repair body stays a 400 on
// /v1/plan, whose requests have no failed list, after /v1/repair has
// cached it.
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
	n, planAliased := s.aliases(t, "/v1/plan", plan)
	_, repairAliased := s.aliases(t, "/v1/repair", plan)
	if n != 3 || !planAliased || !repairAliased || s.svc.cache.Len() != 3 {
		t.Errorf("%d aliases for %d entries (plan body aliased on /v1/plan %v, on /v1/repair %v); want 3, 3, both",
			n, s.svc.cache.Len(), planAliased, repairAliased)
	}
}

// TestRefusedBodiesAreNeverAliased: a body that gets a 400, a 413 or a
// 504, or whose plan fails, leaves no alias, so its next request is
// refused, or planned, as the first one was.
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
		if n, _ := s.aliases(t, tc.path, tc.body); n != 0 || s.svc.cache.Len() != 0 {
			t.Errorf("%s: %d aliases, %d entries; want none", tc.name, n, s.svc.cache.Len())
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
	if n, _ := s.aliases(t, "/v1/plan", timed); n != 0 || s.svc.cache.Len() != 0 {
		t.Errorf("after a 504: %d aliases, %d entries; want none", n, s.svc.cache.Len())
	}
	// Sent again, it is planned, or runs out of its budget again on a
	// slow host; either way it is not served from an alias.
	status, cache, body := s.postCache(t, "/v1/plan", timed)
	if !(status == http.StatusOK && cache == "miss") && status != http.StatusGatewayTimeout {
		t.Errorf("the 504's body again: %d, %s %q, %s; want a 200 miss or a 504", status, cacheStatusHeader, cache, body)
	}

	// A failed plan: no parsed request names an unknown generator, so
	// planning one fails after validation.
	failing := planBody(65)
	c := &planCall{}
	if cached, _, err := s.svc.parseInto(httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(failing)), c); err != nil || cached != nil {
		t.Fatalf("parse: cached %q, err %v; want a decoded request", cached, err)
	}
	c.rr.Generator = "dice"
	key := c.key()
	call, leader := s.svc.flight.begin(key)
	if !leader {
		t.Fatal("a fresh key already has a flight")
	}
	rec := httptest.NewRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.svc.lead(rec, ctx, ctx, "/v1/plan", "", key, call, c)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed plan: %d %s, want 500", rec.Code, rec.Body)
	}
	want := 0 // the 504 body's alias, if its second request was planned
	if status == http.StatusOK {
		want = 1
	}
	if n, aliased := s.aliases(t, "/v1/plan", failing); n != want || aliased {
		t.Errorf("after a failed plan: %d aliases (its body aliased: %v); want %d, none its", n, aliased, want)
	}
}

// TestReencodedBodyTakesOverTheAlias: an equivalent body in other bytes
// (another key order, whitespace, a timeout_ms) reaches the entry
// through the decode path and becomes its alias; the bytes it replaced
// decode again on their next request, and take the alias back.
func TestReencodedBodyTakesOverTheAlias(t *testing.T) {
	s := newTestServer(t, Config{})
	first := planBody(22)
	others := []string{
		reencoded(first),
		`{"method":"centralized","scatter":40,"seed":22,"num_points":500,"rs":4,"k":2,"field_side":50}`,
		strings.ReplaceAll(first, ",", ", "),
		first,
	}
	if status, cache, _ := s.postCache(t, "/v1/plan", first); status != http.StatusOK || cache != "miss" {
		t.Fatalf("first body: %d %q, want a 200 miss", status, cache)
	}
	prev := first
	for i, body := range others {
		if n, aliased := s.aliases(t, "/v1/plan", body); n != 1 || aliased {
			t.Errorf("body %d before its request: %d aliases (it among them: %v); want one, another's", i, n, aliased)
		}
		if status, cache, _ := s.postCache(t, "/v1/plan", body); status != http.StatusOK || cache != "hit" {
			t.Errorf("body %d: %d %q, want a 200 hit", i, status, cache)
		}
		if n, aliased := s.aliases(t, "/v1/plan", body); n != 1 || !aliased {
			t.Errorf("body %d after its request: %d aliases (it among them: %v); want only its own", i, n, aliased)
		}
		if _, aliased := s.aliases(t, "/v1/plan", prev); aliased {
			t.Errorf("body %d: the body before it kept its alias", i)
		}
		prev = body
	}
	if hits, misses := s.counter(obs.ServeCacheHits), s.counter(obs.ServeCacheMisses); hits != 4 || misses != 1 {
		t.Errorf("hits %d, misses %d; want 4 and 1", hits, misses)
	}
}

// TestEveryDeliveryPathServesTheSameBytes: a miss, a coalesced reply, a
// raw hit and a hit through the decode path serve one byte string, and
// X-Decor-Cache names each: miss, coalesced, hit and hit.
func TestEveryDeliveryPathServesTheSameBytes(t *testing.T) {
	s, g := gatedServer(t)
	// Two encodings of one request, each with a deadline that outlasts
	// the wait for the held run slot on a slow host.
	body := `{"timeout_ms":20000,` + planBody(23)[1:]
	other := `{"timeout_ms":20001,` + planBody(23)[1:]
	type reply struct {
		status int
		cache  string
		body   []byte
	}
	send := func(b string) <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := http.Post(s.ts.URL+"/v1/plan", "application/json", strings.NewReader(b))
			if err != nil {
				t.Error(err)
				ch <- reply{}
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			ch <- reply{resp.StatusCode, resp.Header.Get(cacheStatusHeader), data}
		}()
		return ch
	}
	release := holdSlot(t, g)
	leader := send(body)
	waitFor(t, func() bool { return s.reg.Gauge(obs.ServeQueueDepth).Value() == 1 })
	follower := send(other)
	waitFollowers(t, 1)
	release()
	replies := []reply{<-leader, <-follower}
	for _, b := range []string{body, other, other} {
		status, cache, resp := s.postCache(t, "/v1/plan", b)
		replies = append(replies, reply{status, cache, resp})
	}
	want := []string{"miss", "coalesced", "hit", "hit", "hit"}
	for i, r := range replies {
		if r.status != http.StatusOK || r.cache != want[i] {
			t.Errorf("reply %d: %d %q, want 200 %q", i, r.status, r.cache, want[i])
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Errorf("reply %d (%s) differs from the miss:\n%s\nvs\n%s", i, want[i], r.body, replies[0].body)
		}
	}
}
