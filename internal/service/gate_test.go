package service

import (
	"context"
	"fmt"
	"io"
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

// parseMiss decodes body as a /v1/plan request that misses the cache,
// as servePlanLike does before it calls serveMiss; the test then calls
// serveMiss.
func (s *testServer) parseMiss(t *testing.T, body string) *planCall {
	t.Helper()
	c := &planCall{}
	if cached, _, err := s.svc.parseInto(httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)), c); err != nil || cached != nil {
		t.Fatalf("parse: cached %q, err %v; want a decoded request", cached, err)
	}
	return c
}

// checkBooksEmpty fails t unless g grants each of tenants its whole
// share ("" the whole admitted bound) and its run slot is free, as on a
// one-slot gate no call holds.
func checkBooksEmpty(t *testing.T, g *admit.Gate, tenants ...string) {
	t.Helper()
	for _, tenant := range tenants {
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
			t.Errorf("tenant %q: %d admissions free, want %d", tenant, n, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Run(ctx); err != nil {
		t.Fatalf("the run slot is still held: %v", err)
	}
	g.Done()
}

// TestPanickingPlanReleasesItsSlot: a plan that panics unwinds its
// request's goroutine (net/http recovers it), yet it gives back its
// admission and the gate's only run slot, the in-flight gauge reads 0
// again, and the same request then plans.
func TestPanickingPlanReleasesItsSlot(t *testing.T) {
	s, g := gatedServer(t)
	body := planBody(63)
	c := s.parseMiss(t, body)

	// No parsed request holds a sensor without an ID; planning one
	// dereferences the nil ID and panics.
	c.rr.Sensors = []SensorSpec{{X: 1, Y: 1}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("planning a sensor without an ID did not panic")
			}
		}()
		s.svc.serveMiss(httptest.NewRecorder(), context.Background(), "/v1/plan", "", c)
	}()

	checkBooksEmpty(t, g, "")
	if v := s.reg.Gauge(obs.ServeInflight).Value(); v != 0 {
		t.Errorf("%s = %v after the panic, want 0", obs.ServeInflight, v)
	}
	if status, cache, resp := s.postCache(t, "/v1/plan", body); status != http.StatusOK || cache != "miss" {
		t.Errorf("the same request after the panic: %d, %s %q, %s; want a 200 miss", status, cacheStatusHeader, cache, resp)
	}
}

// TestPlanDrainRefusalsCarryRetryAfter: a plan waiting for a run slot
// when the drain's budget runs out, and a plan that reaches the closed
// gate, each get 503 "server shutting down" with Retry-After, the
// backoff signal every other refusal carries. The first counts as an
// error, the second as a rejection.
func TestPlanDrainRefusalsCarryRetryAfter(t *testing.T) {
	s, g := gatedServer(t)
	release := holdSlot(t, g)
	type reply struct {
		status int
		header http.Header
		body   []byte
	}
	send := func(body string) <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := http.Post(s.ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				ch <- reply{}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			ch <- reply{resp.StatusCode, resp.Header, b}
		}()
		return ch
	}
	waiting := send(`{"timeout_ms":20000,` + planBody(66)[1:])
	waitFor(t, func() bool { return s.reg.Gauge(obs.ServeQueueDepth).Value() == 1 })

	// The drain's budget is spent before it starts: the waiting plan is
	// cut off at once, and Shutdown returns once the test's slot is free.
	spent, cancel := context.WithCancel(context.Background())
	cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- s.svc.Shutdown(spent) }()
	waitFor(t, s.svc.Draining)
	replies := []reply{<-waiting, <-send(planBody(67))}
	release()
	if err := <-shutdown; err != context.Canceled {
		t.Errorf("Shutdown = %v, want %v", err, context.Canceled)
	}

	const want = `{"error":"server shutting down"}` + "\n"
	for i, r := range replies {
		if r.status != http.StatusServiceUnavailable || string(r.body) != want || r.header.Get("Retry-After") == "" {
			t.Errorf("plan %d: %d %q, Retry-After %q; want 503 %q with Retry-After",
				i, r.status, r.body, r.header.Get("Retry-After"), want)
		}
	}
	if errs, rejected := s.counter(obs.ServeErrors), s.counter(obs.ServeRejected); errs != 1 || rejected != 1 {
		t.Errorf("errors %d, rejected %d; want 1 each: the cut-off plan and the refused one", errs, rejected)
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

	// Each call either holds an admission or is refused.
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

	checkBooksEmpty(t, g, append([]string{""}, tenants...)...)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
