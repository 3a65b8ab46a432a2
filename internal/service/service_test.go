package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	stdiotest "testing/iotest"
	"time"

	"decor/internal/admit"
	"decor/internal/obs"
)

// testServer bundles a Server with its own registry and HTTP listener.
type testServer struct {
	svc *Server
	ts  *httptest.Server
	reg *obs.Registry
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	return newTestServerGate(t, cfg, nil)
}

// newTestServerGate is newTestServer with g, when non-nil, as the gate
// plans and repairs pass.
func newTestServerGate(t *testing.T, cfg Config, g *admit.Gate) *testServer {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	svc := New(cfg)
	if g != nil {
		svc.gate = g
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return &testServer{svc: svc, ts: ts, reg: cfg.Registry}
}

func (s *testServer) post(t *testing.T, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func (s *testServer) counter(name string) int64 { return s.reg.Counter(name).Value() }

// planBody is a small, fast request: a quarter-scale field the
// centralized planner covers in a few milliseconds.
func planBody(seed uint64) string {
	return fmt.Sprintf(`{"field_side":50,"k":2,"rs":4,"num_points":500,"seed":%d,"scatter":40,"method":"centralized"}`, seed)
}

func decodePlan(t *testing.T, b []byte) PlanResponse {
	t.Helper()
	var pr PlanResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatalf("response not valid JSON: %v\n%s", err, b)
	}
	return pr
}

func TestPlanEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	status, hdr, body := s.post(t, "/v1/plan", planBody(1))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if got := hdr.Get(cacheStatusHeader); got != "miss" {
		t.Errorf("first request cache status = %q, want miss", got)
	}
	pr := decodePlan(t, body)
	if pr.Method != "centralized" || pr.K != 2 {
		t.Errorf("plan = %+v", pr)
	}
	if !pr.Covered || pr.CoverageK != 1 {
		t.Errorf("plan did not restore full coverage: %+v", pr)
	}
	if pr.Placed != len(pr.Placements) || pr.Placed == 0 {
		t.Errorf("placed %d != placements %d (or zero)", pr.Placed, len(pr.Placements))
	}
	if pr.TotalSensors != 40+pr.Placed {
		t.Errorf("total %d, want scatter 40 + placed %d", pr.TotalSensors, pr.Placed)
	}
}

func TestPlanCacheHitIsByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	_, hdr1, body1 := s.post(t, "/v1/plan", planBody(7))
	_, hdr2, body2 := s.post(t, "/v1/plan", planBody(7))
	if hdr1.Get(cacheStatusHeader) != "miss" || hdr2.Get(cacheStatusHeader) != "hit" {
		t.Fatalf("cache statuses = %q, %q; want miss, hit",
			hdr1.Get(cacheStatusHeader), hdr2.Get(cacheStatusHeader))
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cached body differs from computed body:\n%s\nvs\n%s", body1, body2)
	}
	if s.counter(obs.ServeCacheHits) != 1 || s.counter(obs.ServeCacheMisses) != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1",
			s.counter(obs.ServeCacheHits), s.counter(obs.ServeCacheMisses))
	}
	// A timeout_ms makes other bytes, so another entry: a miss, planned
	// again into the same bytes.
	_, hdr3, body3 := s.post(t, "/v1/plan",
		`{"field_side":50,"k":2,"rs":4,"num_points":500,"seed":7,"scatter":40,"method":"centralized","timeout_ms":5000}`)
	if hdr3.Get(cacheStatusHeader) != "miss" || !bytes.Equal(body1, body3) {
		t.Errorf("body with a timeout_ms: status %q, bytes equal %v; want a miss with the same bytes",
			hdr3.Get(cacheStatusHeader), bytes.Equal(body1, body3))
	}
	// A different seed is a different plan: miss, different bytes.
	_, hdr4, body4 := s.post(t, "/v1/plan", planBody(8))
	if hdr4.Get(cacheStatusHeader) != "miss" {
		t.Errorf("different seed cache status = %q, want miss", hdr4.Get(cacheStatusHeader))
	}
	if bytes.Equal(body1, body4) {
		t.Errorf("different seeds should give different plans")
	}
}

// TestConcurrentIdenticalRequestsEachGetThePlan: identical requests sent
// at once each get 200 and the same bytes, each served as a hit or as a
// miss of its own.
func TestConcurrentIdenticalRequestsEachGetThePlan(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 8
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(s.ts.URL+"/v1/plan", "application/json", strings.NewReader(planBody(99)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			if bodies[i], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d status = %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0's", i)
		}
	}
	hits, misses := s.counter(obs.ServeCacheHits), s.counter(obs.ServeCacheMisses)
	if hits+misses != n || misses < 1 {
		t.Errorf("hits %d + misses %d, want %d with at least one miss", hits, misses, n)
	}
}

func TestRepairEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	// A deployment with explicit IDs; fail two of them.
	body := `{"field_side":50,"k":1,"rs":6,"num_points":400,"seed":3,
		"sensors":[{"id":10,"x":10,"y":10},{"id":11,"x":40,"y":40},{"id":12,"x":25,"y":25}],
		"method":"grid-small","failed":[10,12]}`
	status, _, resp := s.post(t, "/v1/repair", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, resp)
	}
	pr := decodePlan(t, resp)
	if pr.Failed != 2 {
		t.Errorf("failed = %d, want 2", pr.Failed)
	}
	if !pr.Covered {
		t.Errorf("repair did not restore coverage: %+v", pr)
	}
	// Survivor 11 stays; 10 and 12 are gone before planning.
	if pr.TotalSensors != 1+pr.Placed {
		t.Errorf("total %d, want 1 survivor + %d placed", pr.TotalSensors, pr.Placed)
	}

	// Unknown failed ID is a validation error.
	status, _, resp = s.post(t, "/v1/repair",
		`{"field_side":50,"k":1,"rs":6,"num_points":400,"sensors":[{"x":10,"y":10}],"failed":[5]}`)
	if status != http.StatusBadRequest {
		t.Errorf("unknown failed id: status = %d, body %s", status, resp)
	}

	// Implicit sequential IDs: sensor 0 exists, failing it works.
	status, _, resp = s.post(t, "/v1/repair",
		`{"field_side":50,"k":1,"rs":6,"num_points":400,"sensors":[{"x":10,"y":10}],"failed":[0]}`)
	if status != http.StatusOK {
		t.Errorf("implicit id repair: status = %d, body %s", status, resp)
	}
}

// TestPlanAndRepairKeysAreDisjoint: readKeyed digests the endpoint tag
// with the body, so identical bytes read for /v1/plan and /v1/repair
// get different keys.
func TestPlanAndRepairKeysAreDisjoint(t *testing.T) {
	const body = `{"field_side":50,"k":1,"rs":4}`
	var buf []byte
	_, plan, err := readKeyed(strings.NewReader(body), &buf, keyTagPlan)
	if err != nil {
		t.Fatal(err)
	}
	_, repair, err := readKeyed(strings.NewReader(body), &buf, keyTagRepair)
	if err != nil {
		t.Fatal(err)
	}
	if plan == repair {
		t.Errorf("plan and repair keys must differ for identical bodies")
	}
}

// gatedServer is a testServer whose plans and repairs pass a gate with
// one run slot, which the test can hold through the gate itself.
func gatedServer(t *testing.T) (*testServer, *admit.Gate) {
	t.Helper()
	g := admit.New(1)
	return newTestServerGate(t, Config{}, g), g
}

// holdSlot takes the gate's only run slot, as a running call would, and
// returns the function that gives it back. Cleanup gives it back too, so
// a failed test still drains.
func holdSlot(t *testing.T, g *admit.Gate) (release func()) {
	t.Helper()
	if err := g.Enter(""); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { g.Done(); g.Leave("") }) }
	t.Cleanup(release)
	return release
}

// fill admits calls for tenant until the gate refuses one, as calls
// waiting for a slot would, and returns the function that lets them leave.
func fill(t *testing.T, g *admit.Gate, tenant string) (leave func()) {
	t.Helper()
	n := 0
	for g.Enter(tenant) == nil {
		n++
	}
	var once sync.Once
	leave = func() {
		once.Do(func() {
			for i := 0; i < n; i++ {
				g.Leave(tenant)
			}
		})
	}
	t.Cleanup(leave)
	return leave
}

// async issues a request on its own goroutine and delivers its status
// (0 if the request itself failed, which is reported).
func async(t *testing.T, method, url, tenant, body string) <-chan int {
	done := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		if tenant != "" {
			req.Header.Set(tenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

func TestBackpressure503WithRetryAfter(t *testing.T) {
	s, g := gatedServer(t)
	leave := fill(t, g, "") // the admitted bound is full
	status, hdr, body := s.post(t, "/v1/plan", planBody(1))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, body %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("503 must carry Retry-After")
	}
	if s.counter(obs.ServeRejected) != 1 {
		t.Errorf("rejected counter = %d, want 1", s.counter(obs.ServeRejected))
	}

	// Capacity freed: the same request now succeeds.
	leave()
	status, _, body = s.post(t, "/v1/plan", planBody(1))
	if status != http.StatusOK {
		t.Errorf("post-drain status = %d, body %s", status, body)
	}
}

// TestDeadlineExceededReturns504: the deadline covers the wait for a run
// slot, so a plan whose 1 ms budget runs out while the only slot is held
// gets its 504 at once, without planning and without waiting for the
// slot to free.
func TestDeadlineExceededReturns504(t *testing.T) {
	s, g := gatedServer(t)
	release := holdSlot(t, g)
	status, _, body := s.post(t, "/v1/plan",
		`{"field_side":100,"k":8,"rs":4,"num_points":2000,"method":"centralized","timeout_ms":1}`)
	release()
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if s.counter(obs.ServeTimeouts) != 1 {
		t.Errorf("timeout counter = %d, want 1", s.counter(obs.ServeTimeouts))
	}
	if n := s.reg.Snapshot().Histograms[obs.ServePlanSeconds].Count; n != 0 {
		t.Errorf("%d plan runs timed, want 0: the plan never got a slot", n)
	}
	// A timed-out plan must not be cached.
	if s.svc.cache.Len() != 0 {
		t.Errorf("cache holds %d entries after a timeout, want 0", s.svc.cache.Len())
	}
}

func TestOversizedBodyFailsFastWith413(t *testing.T) {
	s := newTestServer(t, Config{Limits: Limits{MaxBodyBytes: 1024}})
	big := `{"field_side":50,"k":1,"rs":4,"sensors":[` +
		strings.Repeat(`{"x":1,"y":1},`, 2000) + `{"x":1,"y":1}]}`
	status, _, body := s.post(t, "/v1/plan", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if s.counter(obs.ServeBadRequests) != 1 {
		t.Errorf("bad-request counter = %d, want 1", s.counter(obs.ServeBadRequests))
	}
}

// TestBadBodiesLeaveNothingBehind: on /v1/plan and /v1/repair, a body
// over MaxBodyBytes and a body whose read is cut off keep their status
// and error text, make no cache entry, and get the same answer
// when repeated, also when the bytes read before the cut are a cached
// body's. After Shutdown the goroutine count is back where it started.
func TestBadBodiesLeaveNothingBehind(t *testing.T) {
	const limit = 2048
	before := runtime.NumGoroutine()
	svc := New(Config{Registry: obs.NewRegistry(), Limits: Limits{MaxBodyBytes: limit}})
	h := svc.Handler()
	serve := func(path string, body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec.Code, rec.Body.String()
	}
	cut := func(prefix string) io.Reader {
		return io.MultiReader(strings.NewReader(prefix), stdiotest.ErrReader(io.ErrUnexpectedEOF))
	}
	const tooLarge = `{"error":"request body exceeds 2048 bytes"}` + "\n"
	const cutOff = `{"error":"invalid JSON: unexpected EOF"}` + "\n"
	for _, path := range []string{"/v1/plan", "/v1/repair"} {
		cached := planBody(91)
		if path == "/v1/repair" {
			cached = smallRepair
		}
		if status, body := serve(path, strings.NewReader(cached)); status != http.StatusOK {
			t.Fatalf("%s: priming: %d %s", path, status, body)
		}
		for _, tc := range []struct {
			name   string
			body   func() io.Reader
			status int
			want   string
		}{
			{"one byte over", func() io.Reader { return strings.NewReader(cached + strings.Repeat(" ", limit+1-len(cached))) },
				http.StatusRequestEntityTooLarge, tooLarge},
			{"far over", func() io.Reader { return strings.NewReader(strings.Repeat(" ", 4*limit) + cached) },
				http.StatusRequestEntityTooLarge, tooLarge},
			{"cut mid-body", func() io.Reader { return cut(cached[:len(cached)/2]) }, http.StatusBadRequest, cutOff},
			{"cut after a cached body", func() io.Reader { return cut(cached) }, http.StatusBadRequest, cutOff},
			{"cut at the first byte", func() io.Reader { return cut("") }, http.StatusBadRequest, cutOff},
		} {
			for i := 0; i < 2; i++ {
				status, body := serve(path, tc.body())
				if status != tc.status || body != tc.want {
					t.Errorf("%s %s, request %d: %d %q, want %d %q", path, tc.name, i, status, body, tc.status, tc.want)
				}
				if want, entries := map[string]int{"/v1/plan": 1, "/v1/repair": 2}[path], svc.cache.Len(); entries != want {
					t.Errorf("%s %s: %d entries, want %d: the cached bodies'", path, tc.name, entries, want)
				}
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

func TestValidationRejections(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/v1/plan", `{"field_side":`},
		{"trailing data", "/v1/plan", `{"field_side":50,"k":1,"rs":4} garbage`},
		{"unknown field", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"bogus":1}`},
		{"zero field", "/v1/plan", `{"field_side":0,"k":1,"rs":4}`},
		{"k<1", "/v1/plan", `{"field_side":50,"k":0,"rs":4}`},
		{"giant k", "/v1/plan", `{"field_side":50,"k":1000000,"rs":4}`},
		{"rc<rs", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"rc":2}`},
		{"giant num_points", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"num_points":1000000000}`},
		{"giant scatter", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"scatter":1000000000}`},
		{"unknown method", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"method":"alchemy"}`},
		{"unknown generator", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"generator":"dice"}`},
		{"sensor off field", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"sensors":[{"x":60,"y":10}]}`},
		{"mixed sensor ids", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"sensors":[{"id":1,"x":1,"y":1},{"x":2,"y":2}]}`},
		{"duplicate sensor ids", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"sensors":[{"id":1,"x":1,"y":1},{"id":1,"x":2,"y":2}]}`},
		{"negative timeout", "/v1/plan", `{"field_side":50,"k":1,"rs":4,"timeout_ms":-1}`},
		{"duplicate failed ids", "/v1/repair", `{"field_side":50,"k":1,"rs":4,"sensors":[{"x":1,"y":1}],"failed":[0,0]}`},
	}
	for _, tc := range cases {
		status, _, body := s.post(t, tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", tc.name, status, body)
		}
	}
	if got := s.counter(obs.ServeBadRequests); got != int64(len(cases)) {
		t.Errorf("bad-request counter = %d, want %d", got, len(cases))
	}
}

// postEverywhere posts one plan-shaped body to every route that builds
// a deployment from it — /v1/plan, /v1/repair and /v1/fields (with a
// field_id) — and requires a 400 whose message contains want.
func postEverywhere(t *testing.T, body, want string) {
	t.Helper()
	s := newTestServer(t, Config{})
	for _, path := range []string{"/v1/plan", "/v1/repair", "/v1/fields"} {
		b := body
		if path == "/v1/fields" {
			b = `{"field_id":"f",` + body[1:]
		}
		status, _, resp := s.post(t, path, b)
		if status != http.StatusBadRequest || !strings.Contains(string(resp), want) {
			t.Errorf("%s: status %d, body %s; want 400 naming %s", path, status, resp, want)
		}
	}
}

// TestSensorIDLimit: scattered and placed sensors are numbered up from
// the largest explicit ID, so an ID at MaxInt made them wrap to MinInt
// and a worker goroutine panicked on the duplicate. Explicit IDs are
// capped at 2^53-1 instead.
func TestSensorIDLimit(t *testing.T) {
	postEverywhere(t, `{"field_side":50,"k":1,"rs":4,"num_points":200,"sensors":[{"id":9223372036854775807,"x":1,"y":1}],"scatter":2,"method":"centralized"}`,
		"9007199254740991")
}

// TestGridCellLimit: a 1e5 field at rs 4 asked the coverage map for two
// index grids of 625 million buckets each and ran the process out of
// memory. Every grid a request sizes is capped at 2^18 cells.
func TestGridCellLimit(t *testing.T) {
	postEverywhere(t, `{"field_side":1e5,"k":1,"rs":4,"num_points":200,"scatter":20,"method":"random"}`,
		"262144")
}

// TestAdjacencyLimit: the point adjacency grows with num_points², and
// no deadline poll interrupts its build: a centralized plan at rs 100
// on side 100 allocates about 100 MB at 2000 points, so 6000 need 3.6e7
// entries and about 1 GB. It is capped at 2^24 entries.
func TestAdjacencyLimit(t *testing.T) {
	postEverywhere(t, `{"field_side":100,"k":1,"rs":100,"num_points":6000,"scatter":20,"method":"centralized"}`,
		"16777216")
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, err := http.Get(s.ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan status = %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "ok") {
		t.Errorf("healthz = %d %s", resp.StatusCode, b)
	}

	s.post(t, "/v1/plan", planBody(5))
	resp, err = http.Get(s.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), obs.ServePlanRequests+" 1") {
		t.Errorf("metrics scrape missing live request counter:\n%s", b)
	}
}

func TestGracefulShutdownDrainsInflight(t *testing.T) {
	reg := obs.NewRegistry()
	g := admit.New(1)
	svc := New(Config{Registry: reg})
	svc.gate = g
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A real plan in flight: admitted, and waiting for the run slot the
	// test holds, so the drain window is deterministic.
	release := holdSlot(t, g)
	inflight := async(t, http.MethodPost, ts.URL+"/v1/plan", "", planBody(1))
	waitFor(t, func() bool { return reg.Gauge(obs.ServeQueueDepth).Value() == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- svc.Shutdown(ctx)
	}()

	// Draining: no new work, healthz flips to 503.
	waitFor(t, func() bool { return svc.Draining() })
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	status, hdr, _ := postRaw(t, ts.URL+"/v1/plan", planBody(2))
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("draining plan = %d (Retry-After %q), want 503 with Retry-After", status, hdr.Get("Retry-After"))
	}

	// The in-flight plan completes before Shutdown returns.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned before the in-flight plan finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight plan status = %d, want 200", status)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

func postRaw(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLRUCacheEvicts(t *testing.T) {
	c := newPlanCache(2)
	ka, kb, kc := testKey("a"), testKey("b"), testKey("c")
	c.Put(ka, []byte("A"))
	c.Put(kb, []byte("B"))
	if _, _, ok := c.Get(ka); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put(kc, []byte("C")) // evicts b (a was refreshed)
	if _, _, ok := c.Get(kb); ok {
		t.Error("b should have been evicted")
	}
	if body, clen, ok := c.Get(ka); !ok || string(body) != "A" {
		t.Errorf("a: %q, %v; want A (recently used)", body, ok)
	} else if len(clen) != 1 || clen[0] != strconv.Itoa(len(body)) {
		t.Errorf("cached Content-Length %v, want [%d]", clen, len(body))
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}
