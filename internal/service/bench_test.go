package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"testing"

	"decor/internal/jsonx"
	"decor/internal/obs"
	"decor/internal/rng"
	"decor/internal/session"
)

// The serving-layer alloc benchmarks (ISSUE 10): end-to-end
// allocs/request through the real handlers, with the HTTP plumbing the
// handlers do not own (mux clone, net conn buffers) stripped away so the
// numbers pin OUR layer. scripts/benchstat.sh gates allocs/op exactly
// against BENCH_serve_allocs.json.

// benchWriter is a minimal ResponseWriter: a persistent header map, a
// counting Write, and an optional capture buffer for setup phases that
// need to read the response back. Like net/http's own writers, it takes
// the NDJSON handler's full-duplex switch. Steady-state use allocates
// nothing.
type benchWriter struct {
	h       http.Header
	status  int
	capture *bytes.Buffer
}

func newBenchWriter() *benchWriter { return &benchWriter{h: make(http.Header, 8)} }

func (w *benchWriter) Header() http.Header     { return w.h }
func (w *benchWriter) WriteHeader(s int)       { w.status = s }
func (w *benchWriter) EnableFullDuplex() error { return nil }
func (w *benchWriter) Write(b []byte) (int, error) {
	if w.capture != nil {
		w.capture.Write(b)
	}
	return len(b), nil
}

// rewindCloser lets one bytes.Reader serve as the request body for
// every iteration: Reset it and reassign (servePlanLike replaces r.Body
// with a MaxBytesReader each call).
type rewindCloser struct{ *bytes.Reader }

func (rewindCloser) Close() error { return nil }

func newBenchServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	svc := New(cfg)
	tb.Cleanup(func() { svc.Shutdown(context.Background()) })
	return svc
}

// planRig drives s.handlePlan or s.handleRepair directly, cycling
// through fixed bodies. Calling the handler (not mux.ServeHTTP) avoids
// the per-match request clone the Go 1.22 pattern mux performs, which
// is outside the codec layer.
type planRig struct {
	svc    *Server
	handle http.HandlerFunc
	w      *benchWriter
	req    *http.Request
	rd     *bytes.Reader
	rc     io.ReadCloser
	bodies [][]byte
	n      int // requests sent
}

func newPlanRig(tb testing.TB, cfg Config, bodies ...string) *planRig {
	tb.Helper()
	svc := newBenchServer(tb, cfg)
	return newRig(svc, svc.handlePlan, "/v1/plan", bodies)
}

func newRepairRig(tb testing.TB, cfg Config, bodies ...string) *planRig {
	tb.Helper()
	svc := newBenchServer(tb, cfg)
	return newRig(svc, svc.handleRepair, "/v1/repair", bodies)
}

func newRig(svc *Server, handle http.HandlerFunc, path string, bodies []string) *planRig {
	rd := bytes.NewReader(nil)
	p := &planRig{
		svc:    svc,
		handle: handle,
		w:      newBenchWriter(),
		req:    httptest.NewRequest(http.MethodPost, path, nil),
		rd:     rd,
		rc:     rewindCloser{rd},
	}
	for _, b := range bodies {
		p.bodies = append(p.bodies, []byte(b))
	}
	return p
}

func (p *planRig) run() {
	p.rd.Reset(p.bodies[p.n%len(p.bodies)])
	p.n++
	p.req.Body = p.rc
	p.handle(p.w, p.req)
}

// warmHit runs the rig until its body is a cache hit: the first run
// plans and fills the cache, the second warms every pool on the hit
// path.
func (p *planRig) warmHit(tb testing.TB) {
	tb.Helper()
	p.run()
	p.run()
	if p.w.status != http.StatusOK || p.w.h.Get(cacheStatusHeader) != "hit" {
		tb.Fatalf("warmup: status %d, %s %q", p.w.status, cacheStatusHeader, p.w.h.Get(cacheStatusHeader))
	}
}

// repairBody is shaped like the repair-cached workload's bodies: a
// paper-scale field (side 100, k 3, rs 4, 2000 Halton points) with n
// explicit sensors, IDs 0..n-1 scattered by a fixed-seed RNG, and two
// failed IDs.
func repairBody(n int) string {
	r := rng.New(15)
	b := []byte(`{"field_side":100,"k":3,"rs":4,"num_points":2000,"generator":"halton","seed":3,"sensors":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"x":`...)
		b = strconv.AppendFloat(b, r.Float64()*100, 'f', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, r.Float64()*100, 'f', -1, 64)
		b = append(b, '}')
	}
	return string(append(b, `],"method":"voronoi-big","failed":[3,7]}`...))
}

// BenchmarkServePlanCacheHit is the acceptance hot path: a warm
// cache-hit /v1/plan, found by the body's digest, response straight
// from the byte cache. Gated at <= 10 allocs/request.
func BenchmarkServePlanCacheHit(b *testing.B) {
	p := newPlanRig(b, Config{}, planBody(7))
	p.run() // cold miss populates the cache; everything after hits
	if p.w.status != 0 && p.w.status != http.StatusOK {
		b.Fatalf("warmup status = %d", p.w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run()
	}
}

// BenchmarkServeRepairCacheHit is the repair-cached workload's hot
// path: a warm cache-hit /v1/repair carrying 900 explicit sensors
// (~50 KB), sent byte for byte again, so the body's digest finds the
// plan and nothing decodes. Gated exactly in benchstat.sh.
func BenchmarkServeRepairCacheHit(b *testing.B) {
	p := newRepairRig(b, Config{}, repairBody(900))
	p.warmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run()
	}
}

// forget empties the cache, so the next request for any body misses.
func (c *planCache) forget() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}

// BenchmarkServePlanCacheMiss runs the full pipeline every iteration —
// decode, normalize, queue, plan, encode, cache — by emptying the cache
// after each request. The request is fixed, so the planner work (and
// its allocations) are deterministic run to run.
func BenchmarkServePlanCacheMiss(b *testing.B) {
	p := newPlanRig(b, Config{}, planBody(7))
	miss := func() {
		p.run()
		p.svc.cache.forget()
	}
	miss() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
	b.StopTimer()
	if p.w.status != http.StatusOK || p.w.h.Get(cacheStatusHeader) != "miss" {
		b.Fatalf("last request: status %d, %s %q; want a 200 miss", p.w.status, cacheStatusHeader, p.w.h.Get(cacheStatusHeader))
	}
}

// TestServePlanCacheHitAllocs pins the ISSUE acceptance number outside
// the bench harness so plain `go test` (including -race) enforces it:
// a warm cache-hit /v1/plan costs at most 10 heap allocations.
// GC is paused so a mid-run sync.Pool flush cannot inflate the average.
func TestServePlanCacheHitAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := newPlanRig(t, Config{}, planBody(7))
	p.run()
	if p.w.status != 0 && p.w.status != http.StatusOK {
		t.Fatalf("warmup status = %d", p.w.status)
	}
	p.run() // ensure every pool on the path has a warm entry
	avg := testing.AllocsPerRun(100, p.run)
	t.Logf("cache-hit /v1/plan: %.1f allocs/request", avg)
	if avg > 10 {
		t.Errorf("cache-hit /v1/plan costs %.1f allocs/request, want <= 10", avg)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestServeRepairCacheHitAllocs pins what a cache hit pays for its
// sensor list: nothing, since the body's digest finds the plan before
// anything decodes, so a hit costs the same allocations at 9 and at 900
// sensors. GC is paused as in TestServePlanCacheHitAllocs. Under -race
// the pools drop entries at random, so the 50-KB body buffer regrows on
// some hits; plain `go test` and the exact BENCH_serve_allocs.json gate
// enforce the count.
func TestServeRepairCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hit := func(n int) float64 {
		p := newRepairRig(t, Config{}, repairBody(n))
		p.warmHit(t)
		return testing.AllocsPerRun(100, p.run)
	}
	small, large := hit(9), hit(900)
	t.Logf("cache-hit /v1/repair: %.1f allocs/request with 9 sensors, %.1f with 900", small, large)
	if large != small {
		t.Errorf("900-sensor hit costs %.1f allocs/request, %.1f with 9 sensors; want equal", large, small)
	}
}

// TestDecodeCostsPerList pins what decoding and validating a body pays
// for its sensor and failed-ID lists: a few allocations per list, not
// per sensor. decodeRequest and normalize of a 900-sensor repair body
// cost at most 16 allocations, and at most 2 more than a 9-sensor one.
// GC is paused and the pools are warm, as in the cache-hit tests.
func TestDecodeCostsPerList(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lim := DefaultLimits()
	cost := func(n int) float64 {
		data := []byte(repairBody(n))
		decode := func() {
			var rr RepairRequest
			if err := decodeRequest(data, &rr.PlanRequest, &rr.Failed, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := rr.normalize(lim); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm the decoder and ID-set pools
		return testing.AllocsPerRun(100, decode)
	}
	small, large := cost(9), cost(900)
	t.Logf("decode + normalize of a repair body: %.1f allocs with 9 sensors, %.1f with 900", small, large)
	if large > 16 {
		t.Errorf("900-sensor body costs %.1f allocs, want <= 16", large)
	}
	if large > small+2 {
		t.Errorf("900-sensor body costs %.1f allocs, %.1f more than with 9 sensors; want <= 2", large, large-small)
	}
}

// eventRig drives the session event handler (wrapped in the same
// metrics middleware production uses) with one 3-failure event per
// iteration, keeping the alive-ID list the same way
// session.benchSession does: victims come off the top, replacements
// are the next sequential IDs.
type eventRig struct {
	svc   *Server
	w     *benchWriter
	req   *http.Request
	h     http.HandlerFunc
	rd    *bytes.Reader
	rc    io.ReadCloser
	body  []byte
	alive []int
	cap   *bytes.Buffer
}

func newEventRig(tb testing.TB) *eventRig {
	tb.Helper()
	svc := newBenchServer(tb, Config{})
	e := &eventRig{
		svc: svc,
		w:   newBenchWriter(),
		h:   svc.withSessionMetrics("/v1/fields/{id}/events", svc.handleFieldEvents),
		cap: &bytes.Buffer{},
	}
	e.rd = bytes.NewReader(nil)
	e.rc = rewindCloser{e.rd}

	// Create the session through the real handler.
	e.w.capture = e.cap
	create := httptest.NewRequest(http.MethodPost, "/v1/fields",
		bytes.NewReader([]byte(`{"field_id":"bench","field_side":50,"k":2,"rs":4,`+
			`"num_points":500,"seed":7,"scatter":40,"method":"centralized"}`)))
	svc.handleFieldCreate(e.w, create)
	if e.w.status != http.StatusCreated {
		tb.Fatalf("create status = %d: %s", e.w.status, e.cap.Bytes())
	}
	for id := 0; id < 40; id++ {
		e.alive = append(e.alive, id)
	}
	e.grow(capturedPlaced(tb, e.cap.Bytes()))

	e.req = httptest.NewRequest(http.MethodPost, "/v1/fields/bench/events", nil)
	e.req.SetPathValue("id", "bench")
	return e
}

func (e *eventRig) grow(placed int) {
	next := 0
	if len(e.alive) > 0 {
		next = e.alive[len(e.alive)-1] + 1
	}
	for i := 0; i < placed; i++ {
		e.alive = append(e.alive, next)
		next++
	}
}

// step sends one `{"failed":[a,b,c]}` event and accounts for the
// replacements. Request body and capture buffer are reused; the only
// allocations measured are the handler's own.
func (e *eventRig) step(tb testing.TB) {
	if len(e.alive) < 3 {
		tb.Fatal("alive set exhausted")
	}
	b := append(e.body[:0], `{"failed":[`...)
	for i, id := range e.alive[len(e.alive)-3:] {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	e.body = append(b, "]}\n"...)

	e.cap.Reset()
	e.rd.Reset(e.body)
	e.req.Body = e.rc
	e.w.status = 0
	e.h(e.w, e.req)
	if e.w.status != 0 && e.w.status != http.StatusOK {
		tb.Fatalf("event status = %d: %s", e.w.status, e.cap.Bytes())
	}
	e.alive = e.alive[:len(e.alive)-3]
	e.grow(capturedPlaced(tb, e.cap.Bytes()))
}

// capturedPlaced pulls `"placed":N` out of a delta response without
// allocating a decoder: the field name is unique in the delta schema
// (`"placements"` is followed by `m`, not `":`).
func capturedPlaced(tb testing.TB, body []byte) int {
	tb.Helper()
	i := bytes.Index(body, []byte(`"placed":`))
	if i < 0 {
		tb.Fatalf("no placed field in %s", body)
	}
	j := i + len(`"placed":`)
	n := 0
	for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		n = n*10 + int(body[j]-'0')
	}
	return n
}

// BenchmarkServeFieldEvent is the session apply→encode path end to
// end: NDJSON event decode, incremental repair, delta encode into the
// pooled buffer. The field state evolves, so allocs/op carries small
// planner-side variance; benchstat.sh gates it with headroom instead
// of exactly.
func BenchmarkServeFieldEvent(b *testing.B) {
	e := newEventRig(b)
	e.step(b) // warm the incremental path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step(b)
	}
}

// BenchmarkServeSSEFrame is the per-subscriber fanout cost: rendering
// one delta as a complete SSE frame into a reused buffer. Steady state
// must be zero allocs/op — the frame buffer is pooled per subscriber.
func BenchmarkServeSSEFrame(b *testing.B) {
	d := benchSSEDelta()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = appendSSEFrame(buf[:0], d)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}

func benchSSEDelta() *session.Delta {
	return &session.Delta{
		FieldID: "bench-field", Seq: 42, Method: "centralized",
		Failed: []int{2501, 2502, 2503}, Placed: 3,
		Placements: []session.Point{
			{X: 101.52343, Y: 330.0078125}, {X: 98.25, Y: 331.875}, {X: 104.4921875, Y: 328.5},
		},
		TotalSensors: 2503, Messages: 118, Rounds: 2,
		CoverageK: 0.999871, Covered: true,
	}
}

// TestSSEFrameAllocFreeAndWellFormed pins the structural properties
// behind the SSE bench: zero allocations into a warm buffer, and the
// exact frame layout the pre-codec Fprintf produced.
func TestSSEFrameAllocFreeAndWellFormed(t *testing.T) {
	d := benchSSEDelta()
	buf := make([]byte, 0, 1024)
	var err error
	if buf, err = appendSSEFrame(buf[:0], d); err != nil {
		t.Fatal(err)
	}
	wire, err := d.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "id: 42\nevent: delta\ndata: " + string(wire) + "\n\n"
	if string(buf) != want {
		t.Errorf("frame:\n got %q\nwant %q", buf, want)
	}
	avg := testing.AllocsPerRun(20, func() {
		buf, err = appendSSEFrame(buf[:0], d)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("appendSSEFrame into warm buffer: %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkServeErrorBody: writeError's body rendered through the
// pooled append encoder, every error body's one path.
func BenchmarkServeErrorBody(b *testing.B) {
	buf := jsonx.GetBuf()
	defer jsonx.PutBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*buf = appendErrorBody((*buf)[:0], `unknown generator "h<é>lton"`)
	}
}
