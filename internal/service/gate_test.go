package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"decor/internal/admit"
	"decor/internal/obs"
)

// waitFollowers waits until n requests wait on an identical in-flight
// plan. Only a follower parks in servePlanLike's own select; a leader
// waits inside the gate or the planner.
func waitFollowers(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, func() bool {
		dump := string(buf[:runtime.Stack(buf, true)])
		k := 0
		for _, g := range strings.Split(dump, "\n\n") {
			lines := strings.Split(g, "\n")
			if !strings.Contains(lines[0], "[select") {
				continue
			}
			for _, l := range lines[1:] {
				if strings.HasPrefix(l, "\t") || strings.HasPrefix(l, "runtime.") {
					continue
				}
				if strings.HasPrefix(l, "decor/internal/service.(*Server).servePlanLike(") {
					k++
				}
				break
			}
		}
		return k == n
	})
}

// beginLead decodes body as a /v1/plan request and wins its flight, as
// a leader does before it reaches the gate; the test then calls lead.
func (s *testServer) beginLead(t *testing.T, body string) (*planCall, *flightCall) {
	t.Helper()
	c := &planCall{}
	if cached, _, err := s.svc.parseInto(httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)), c); err != nil || cached != nil {
		t.Fatalf("parse: cached %q, err %v; want a decoded request", cached, err)
	}
	call, leader := s.svc.flight.begin(c.key)
	if !leader {
		t.Fatal("a fresh key already has a flight")
	}
	return c, call
}

// TestFollowerOutlivesLeaderDeadline: a request coalesced onto a leader
// whose own, shorter budget runs out while it waits for a run slot does
// not inherit the leader's 504. It takes its own turn, leads, and gets
// the plan within its own deadline once the slot frees. Each request is
// counted once: the leader as a timeout, the follower as a miss.
func TestFollowerOutlivesLeaderDeadline(t *testing.T) {
	s, g := gatedServer(t)
	release := holdSlot(t, g)
	body := `{"field_side":50,"k":2,"rs":4,"num_points":500,"seed":60,"scatter":40,"method":"centralized","timeout_ms":20000}`

	// The leader wins the flight with a 300-ms budget, and the follower
	// coalesces onto it before the leader reaches the gate.
	c, call := s.beginLead(t, body)
	follower := async(t, http.MethodPost, s.ts.URL+"/v1/plan", "", body)
	waitFollowers(t, 1)
	rec := httptest.NewRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	led := make(chan struct{})
	go func() {
		defer close(led)
		s.svc.lead(rec, ctx, ctx, "/v1/plan", "", call, c)
	}()
	select {
	case <-led:
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("leader status = %d, want 504 once its own 300 ms are spent", rec.Code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the leader waited past its deadline for the held slot")
	}
	waitFor(t, func() bool { return s.reg.Gauge(obs.ServeQueueDepth).Value() == 1 })
	release()
	if status := <-follower; status != http.StatusOK {
		t.Errorf("follower status = %d, want 200 within its own 20 s", status)
	}
	if misses := s.counter(obs.ServeCacheMisses); misses != 1 {
		t.Errorf("%d plans computed, want 1 (the follower's own turn)", misses)
	}
	if timeouts, coalesced := s.counter(obs.ServeTimeouts), s.counter(obs.ServeCoalesced); timeouts != 1 || coalesced != 0 {
		t.Errorf("timeouts %d, coalesced %d; want 1 and 0, one count per request", timeouts, coalesced)
	}
}

// TestFollowerOfRefusedLeaderTakesItsOwnTurn: a polite tenant's request
// coalesced onto an identical one from a tenant whose admission share is
// spoken for does not inherit that tenant's 429; it takes its own turn,
// is admitted under its own share, and gets the plan.
func TestFollowerOfRefusedLeaderTakesItsOwnTurn(t *testing.T) {
	s, g := gatedServer(t)
	fill(t, g, "hog")
	body := planBody(61)

	// The hog's request wins the flight, and the polite request coalesces
	// onto it before the hog reaches the gate.
	c, call := s.beginLead(t, body)
	polite := async(t, http.MethodPost, s.ts.URL+"/v1/plan", "polite", body)
	waitFollowers(t, 1)
	rec := httptest.NewRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.svc.lead(rec, ctx, ctx, "/v1/plan", "hog", call, c)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("hog status = %d (Retry-After %q), want 429 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if status := <-polite; status != http.StatusOK {
		t.Errorf("polite follower status = %d, want 200", status)
	}
	if coalesced := s.counter(obs.ServeCoalesced); coalesced != 0 {
		t.Errorf("coalesced = %d, want 0: the follower planned on its own turn", coalesced)
	}
}

// TestPanickingLeaderReleasesFollowers: a plan that panics unwinds its
// leader's goroutine, yet the flight still ends. The follower takes its
// own turn within its own deadline instead of waiting it out, and the
// panicking plan gave back the gate's only run slot.
func TestPanickingLeaderReleasesFollowers(t *testing.T) {
	s, _ := gatedServer(t)
	body := planBody(63)
	c, call := s.beginLead(t, body)
	follower := async(t, http.MethodPost, s.ts.URL+"/v1/plan", "", body)
	waitFollowers(t, 1)

	// No parsed request holds a sensor without an ID; planning one
	// dereferences the nil ID and panics.
	c.rr.Sensors = []SensorSpec{{X: 1, Y: 1}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("planning a sensor without an ID did not panic")
			}
		}()
		s.svc.lead(httptest.NewRecorder(), ctx, ctx, "/v1/plan", "", call, c)
	}()
	if status := <-follower; status != http.StatusOK {
		t.Errorf("follower status = %d, want 200 on its own turn", status)
	}
	s.svc.flight.mu.Lock()
	n := len(s.svc.flight.calls)
	s.svc.flight.mu.Unlock()
	if n != 0 {
		t.Errorf("%d flights still open after the panic, want 0", n)
	}
}

// TestFieldEventsDoNotWaitBehindPlans: field-session calls pass the
// session manager's own gate, not the one plans and repairs pass. While
// the test holds the plans' only run slot, a plan with a 1 ms budget gets
// its 504 at once, and a field event completes without waiting for the
// slot.
func TestFieldEventsDoNotWaitBehindPlans(t *testing.T) {
	s, g := gatedServer(t)
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 3)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	holdSlot(t, g)
	status, _, body := s.post(t, "/v1/plan",
		`{"field_side":50,"k":2,"rs":4,"num_points":500,"seed":62,"scatter":40,"method":"centralized","timeout_ms":1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("plan status = %d, body %s; want 504 while the slot is held", status, body)
	}
	event := async(t, http.MethodPost, s.ts.URL+"/v1/fields/f/events", "t", `{"failed":[1]}`)
	select {
	case status := <-event:
		if status != http.StatusOK {
			t.Errorf("field event status = %d, want 200", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the field event waited for the plans' run slot")
	}
}

// TestOverloadBurstLeavesNothingBehind is a first slice of overload
// coverage: a mixed burst of plans, repairs and NDJSON event streams from
// three tenants meets a one-slot plan gate that the test holds nearly
// full. The event streams complete on the sessions' own gate, four plans
// wait, and the other five are refused, each 503 or 429 with
// Retry-After. Once the burst is served the gate's books are empty, and
// after Shutdown the goroutine count is back where it started.
func TestOverloadBurstLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	g := admit.New(1)
	svc := New(Config{Registry: obs.NewRegistry()})
	svc.gate = g
	h := svc.Handler()
	serve := func(method, path, tenant, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set(tenantHeader, tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	tenants := []string{"a", "b", "c"}
	for i, tn := range tenants {
		if rec := serve("POST", "/v1/fields", tn, fieldBody("f", uint64(i+1))); rec.Code != http.StatusCreated {
			t.Fatalf("create for %s: %d %s", tn, rec.Code, rec.Body)
		}
	}

	// Tenant c's share is spoken for (429s), and the run slot and all but
	// four admissions are held, so two of a's and b's six plans get 503s.
	release := holdSlot(t, g)
	leaveC := fill(t, g, "c")
	held := 0
	for g.Enter("") == nil {
		held++
	}
	for i := 0; i < 4; i++ {
		g.Leave("")
		held--
	}

	// Every body is distinct, so no call coalesces onto another and each
	// one either holds an admission or is refused.
	type call struct{ method, path, tenant, body string }
	var burst []call
	for i, tn := range tenants {
		burst = append(burst,
			call{"POST", "/v1/plan", tn, planBody(uint64(70 + 2*i))},
			call{"POST", "/v1/plan", tn, planBody(uint64(71 + 2*i))},
			call{"POST", "/v1/repair", tn, fmt.Sprintf(`{"field_side":50,"k":1,"rs":6,"num_points":400,"seed":%d,
				"sensors":[{"id":10,"x":10,"y":10},{"id":11,"x":40,"y":40},{"id":12,"x":25,"y":25}],
				"method":"grid-small","failed":[10,12]}`, 80+i)},
			call{"POST", "/v1/fields/f/events", tn, "{\"failed\":[2]}\n{\"failed\":[3]}\n"})
	}
	codes := make([]*httptest.ResponseRecorder, len(burst))
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	wg.Add(len(burst))
	for i, c := range burst {
		go func(i int, c call) {
			defer wg.Done()
			codes[i] = serve(c.method, c.path, c.tenant, c.body)
			mu.Lock()
			done++
			mu.Unlock()
		}(i, c)
	}
	// Four plans hold an admission while they wait for the slot; every
	// other call is refused or served at once.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done >= len(burst)-4
	})
	release()
	leaveC()
	for ; held > 0; held-- {
		g.Leave("")
	}
	wg.Wait()

	refused := 0
	for i, rec := range codes {
		switch rec.Code {
		case http.StatusOK:
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			if burst[i].path == "/v1/fields/f/events" {
				t.Errorf("%s's event stream refused (%d) by the plans' gate", burst[i].tenant, rec.Code)
			}
			refused++
			if rec.Header().Get("Retry-After") == "" {
				t.Errorf("%s %s (%s): %d without Retry-After", burst[i].method, burst[i].path, burst[i].tenant, rec.Code)
			}
		default:
			t.Errorf("%s %s (%s): status %d, body %s", burst[i].method, burst[i].path, burst[i].tenant, rec.Code, rec.Body)
		}
	}
	if refused != 5 {
		t.Errorf("%d of %d calls refused, want 5: c's three plans and two of a's and b's six", refused, len(burst))
	}

	// The books: the whole admitted bound, each tenant's whole share and
	// the run slot are free again.
	for _, tenant := range append([]string{""}, tenants...) {
		n := 0
		for g.Enter(tenant) == nil {
			n++
		}
		for i := 0; i < n; i++ {
			g.Leave(tenant)
		}
		want := admit.Depth
		if tenant != "" {
			want = admit.Depth / 4
		}
		if n != want {
			t.Errorf("tenant %q: %d admissions free after the burst, want %d", tenant, n, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Run(ctx); err != nil {
		t.Fatalf("the run slot is still held after the burst: %v", err)
	}
	g.Done()

	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
