package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"decor"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/obs"
	"decor/internal/service"
	"decor/internal/session"
)

// The traced run (--trace 1) serves the workload like a timed run, with
// one client span per op and histogram scrapes around the measured
// phase, then replays the same inputs in-process, one op at a time on
// one goroutine, with spans around each layer's public entry points:
//
//	service   service.Server.Handler().ServeHTTP, through a recorder
//	session   session.Manager.Create / Apply, Delta.AppendJSON
//	decor     decor.NewDeployment, AddSensorID / ScatterRandom, FailSensors
//	lowdisc   lowdisc.ByName(...).Points
//	coverage  coverage.New
//	core      decor.Deployment.DeployContext (a thin call into core)
//
// A layer's calls into the layer below happen inside the program, where
// no span can reach, so each op's next-layer calls are replayed on a
// replica built from the same inputs; deployments and sessions are
// deterministic, so the replica does the same work. A layer's self time
// is its call minus its replayed children. Every replica must report
// the placed, messages and fully_covered the served run reported.

// traceCap bounds the ops per connection a traced run serves, because
// each one is replayed in-process afterwards; it covers each quality
// window.
var traceCap = map[string]int{"repair-cached": 3000, "plan-cold": 300, "field-events": 600}

func traceCaps(w *workload) {
	for c := range w.ops {
		if n := traceCap[w.name]; len(w.ops[c]) > n {
			w.ops[c] = w.ops[c][:n]
		}
	}
}

// cost is what one call spent: wall time and heap allocations.
type cost struct {
	dur           time.Duration
	allocs, bytes int64
}

func (c cost) plus(o cost) cost {
	return cost{c.dur + o.dur, c.allocs + o.allocs, c.bytes + o.bytes}
}

func (c cost) minus(o cost) cost {
	return cost{c.dur - o.dur, c.allocs - o.allocs, c.bytes - o.bytes}
}

// lspan is one replay span; spans are kept in memory and written when
// the run ends.
type lspan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs"`
	Bytes  int64  `json:"bytes"`
}

// tracer times calls and keeps their spans.
type tracer struct {
	t0      time.Time
	spans   []lspan
	ms      runtime.MemStats
	samples []metrics.Sample
	// own is the time the tracer spent outside the calls it timed:
	// reading the clock and the allocation counters, keeping spans.
	own time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
	}}
}

// heap reads the process's cumulative heap allocations from
// runtime/metrics, the source of decor-serve's
// decor_serve_go_mallocs_total, so layer counts add up to the server's.
// runtime/metrics counts a small object only when its cached span is
// swapped out, which moved counts between neighbouring calls (session
// self allocations read -12.6 per event), so runtime.ReadMemStats first
// flushes every P's span cache.
func (t *tracer) heap() (int64, int64) {
	runtime.ReadMemStats(&t.ms)
	metrics.Read(t.samples)
	return int64(t.samples[0].Value.Uint64()), int64(t.samples[1].Value.Uint64())
}

// call runs f inside a span and returns the span's ID and cost.
func (t *tracer) call(name string, parent, op int, f func()) (int, cost) {
	enter := time.Now()
	a0, b0 := t.heap()
	start := time.Now()
	f()
	end := time.Now()
	a1, b1 := t.heap()
	id := len(t.spans)
	c := cost{end.Sub(start), a1 - a0, b1 - b0}
	t.spans = append(t.spans, lspan{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Allocs: c.allocs, Bytes: c.bytes})
	t.own += time.Since(enter) - c.dur
	return id, c
}

// acc accumulates one layer metric's calls.
type acc struct {
	n     int
	total cost
	extra float64 // a per-call count, such as rounds or encoded bytes
}

func (a *acc) add(c cost) { a.n++; a.total = a.total.plus(c) }

// replay is one in-process pass over a traced run's inputs.
type replay struct {
	tr     *tracer
	svc    *service.Server
	h      http.Handler
	mgr    *session.Manager    // replica of the server's session layer
	fields []*decor.Deployment // replica of each session's deployment
	acc    map[string]*acc
	buf    []byte
	parity error
	ops    int
}

func newReplay() *replay {
	// decor-serve's defaults: an unbounded registry and a 4096-span tracer.
	svc := service.New(service.Config{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(4096)})
	return &replay{
		tr:     newTracer(),
		svc:    svc,
		h:      svc.Handler(),
		mgr:    session.New(session.Config{Registry: obs.NewRegistry()}),
		fields: make([]*decor.Deployment, len(methods)),
		acc:    map[string]*acc{},
	}
}

func (r *replay) close() {
	r.mgr.Close()
	r.svc.Shutdown(context.Background())
}

func (r *replay) add(name string, c cost) *acc {
	a := r.acc[name]
	if a == nil {
		a = &acc{}
		r.acc[name] = a
	}
	a.add(c)
	return a
}

func (r *replay) mismatch(o op, layer string, err error) {
	if r.parity == nil {
		r.parity = fmt.Errorf("op %d %s: %s replay: %w", o.id, o.path, layer, err)
	}
}

// same compares a replayed outcome with the served one.
func same(got, want outcome) error {
	if got.placed != want.placed || got.messages != want.messages || got.covered != want.covered {
		return fmt.Errorf("placed/messages/covered %d/%d/%t, served %d/%d/%t",
			got.placed, got.messages, got.covered, want.placed, want.messages, want.covered)
	}
	return nil
}

// op replays one served op. measured marks ops of the measured phase;
// set-up ops feed only the planner-layer metrics.
func (r *replay) op(o op, want outcome, measured bool) {
	r.ops++
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Decor-Tenant", tenant)
	rec := httptest.NewRecorder()
	root, sc := r.tr.call("service.ServeHTTP", -1, o.id, func() { r.h.ServeHTTP(rec, req) })
	got, err := check(rec.Body.Bytes())
	if err == nil {
		err = same(got, want)
	}
	if err == nil && rec.Header().Get("X-Decor-Cache") != o.want {
		err = fmt.Errorf("X-Decor-Cache %q, want %q", rec.Header().Get("X-Decor-Cache"), o.want)
	}
	if err != nil {
		r.mismatch(o, "service", err)
	}

	var child cost
	switch {
	case o.path == "/v1/fields":
		child = r.sessionCreate(o, root, want)
	case o.field >= 0:
		child = r.sessionApply(o, root, want, measured)
	case o.want == "miss":
		child = r.plan(o, root, want)
	}
	if measured {
		r.add("service", sc.minus(child))
	}
}

func (r *replay) body(o op) planBody {
	var b planBody
	if err := json.Unmarshal(o.body, &b); err != nil {
		r.mismatch(o, "decode", err)
	}
	return b
}

// build replays decor.NewDeployment and, one layer down, the point set
// and coverage map it builds, then the sensors the request deploys.
func (r *replay) build(o op, parent int, b planBody) (*decor.Deployment, cost) {
	var d *decor.Deployment
	var err error
	nd, nc := r.tr.call("decor.NewDeployment", parent, o.id, func() {
		d, err = decor.NewDeployment(decor.Params{FieldSide: b.FieldSide, K: b.K, Rs: b.Rs,
			NumPoints: b.NumPoints, Generator: b.Generator, Seed: b.Seed})
	})
	if err != nil {
		r.mismatch(o, "decor", err)
		return nil, nc
	}
	field := geom.Square(b.FieldSide)
	var pts []geom.Point
	_, lc := r.tr.call("lowdisc.Points", nd, o.id, func() {
		g, gerr := lowdisc.ByName(b.Generator, b.Seed)
		if gerr != nil {
			err = gerr
			return
		}
		pts = g.Points(b.NumPoints, field)
	})
	if err != nil {
		r.mismatch(o, "lowdisc", err)
	}
	_, cc := r.tr.call("coverage.New", nd, o.id, func() { coverage.New(field, pts, b.Rs, b.K) })
	_, sc := r.tr.call("decor.AddSensors", parent, o.id, func() {
		for _, s := range b.Sensors {
			if err = d.AddSensorID(s.ID, decor.Point{X: s.X, Y: s.Y}); err != nil {
				return
			}
		}
		if b.Scatter > 0 {
			d.ScatterRandom(b.Scatter)
		}
	})
	if err != nil {
		r.mismatch(o, "decor", err)
	}
	r.add("lowdisc", lc)
	r.add("coverage", cc)
	r.add("decor.sensors", sc)
	return d, nc.plus(sc)
}

// deploy replays DeployContext and books it as a from-scratch plan or
// an incremental repair.
func (r *replay) deploy(o op, parent int, d *decor.Deployment, method string, repair bool) (decor.Report, cost) {
	var rep decor.Report
	var err error
	_, c := r.tr.call("core.DeployContext", parent, o.id, func() {
		rep, err = d.DeployContext(context.Background(), method)
	})
	if err != nil {
		r.mismatch(o, "core", err)
	}
	kind := "core.deploy"
	if repair {
		kind = "core.repair"
	}
	r.add(kind, c).extra += float64(rep.Rounds)
	r.add(kind+"."+method, c)
	return rep, c
}

func (r *replay) fail(o op, parent int, d *decor.Deployment, ids []int) cost {
	var err error
	_, c := r.tr.call("decor.FailSensors", parent, o.id, func() { err = d.FailSensors(ids...) })
	if err != nil {
		r.mismatch(o, "decor", err)
	}
	r.add("decor.fail", c)
	return c
}

func replicaOutcome(rep decor.Report, d *decor.Deployment) outcome {
	return outcome{placed: rep.Placed, messages: rep.Messages, covered: d.FullyCovered()}
}

// plan replays a planned /v1/plan or /v1/repair on a replica deployment.
func (r *replay) plan(o op, parent int, want outcome) cost {
	b := r.body(o)
	d, c := r.build(o, parent, b)
	if d == nil {
		return c
	}
	if len(b.Failed) > 0 {
		c = c.plus(r.fail(o, parent, d, b.Failed))
	}
	rep, dc := r.deploy(o, parent, d, b.Method, false)
	if err := same(replicaOutcome(rep, d), want); err != nil {
		r.mismatch(o, "decor", err)
	}
	return c.plus(dc)
}

func (r *replay) encode(o op, parent int, delta *session.Delta) (cost, int) {
	var err error
	_, c := r.tr.call("session.Delta.AppendJSON", parent, o.id, func() { r.buf, err = delta.AppendJSON(r.buf[:0]) })
	if err != nil {
		r.mismatch(o, "session", err)
	}
	return c, len(r.buf)
}

func deltaOutcome(d session.Delta) outcome {
	return outcome{placed: d.Placed, messages: d.Messages, covered: d.Covered}
}

// sessionCreate replays POST /v1/fields on the replica manager and, one
// layer down, builds and plans the session's replica deployment.
func (r *replay) sessionCreate(o op, parent int, want outcome) cost {
	b := r.body(o)
	spec := session.Spec{FieldSide: b.FieldSide, K: b.K, Rs: b.Rs, Rc: 2 * b.Rs, NumPoints: b.NumPoints,
		Generator: b.Generator, Seed: b.Seed, Scatter: b.Scatter, Method: b.Method}
	var delta session.Delta
	var err error
	mc, c := r.tr.call("session.Manager.Create", parent, o.id, func() {
		_, delta, err = r.mgr.Create(tenant, b.FieldID, spec)
	})
	if err == nil {
		err = same(deltaOutcome(delta), want)
	}
	if err != nil {
		r.mismatch(o, "session", err)
	}
	ec, _ := r.encode(o, parent, &delta)
	d, _ := r.build(o, mc, b)
	if d != nil {
		rep, _ := r.deploy(o, mc, d, b.Method, false)
		if err := same(replicaOutcome(rep, d), want); err != nil {
			r.mismatch(o, "decor", err)
		}
	}
	r.fields[o.field] = d
	return c.plus(ec)
}

// sessionApply replays one failure event on the replica manager and, one
// layer down, on the session's replica deployment.
func (r *replay) sessionApply(o op, parent int, want outcome, measured bool) cost {
	var ev struct {
		Failed []int `json:"failed"`
	}
	if err := json.Unmarshal(o.body, &ev); err != nil {
		r.mismatch(o, "decode", err)
	}
	var delta session.Delta
	var err error
	ap, ac := r.tr.call("session.Manager.Apply", parent, o.id, func() {
		delta, err = r.mgr.Apply(tenant, fieldID(o.field), ev.Failed)
	})
	if err == nil {
		err = same(deltaOutcome(delta), want)
	}
	if err != nil {
		r.mismatch(o, "session", err)
	}
	ec, n := r.encode(o, parent, &delta)
	d := r.fields[o.field]
	if d == nil {
		return ac.plus(ec)
	}
	fc := r.fail(o, ap, d, ev.Failed)
	rep, dc := r.deploy(o, ap, d, methods[o.field], true)
	if err := same(replicaOutcome(rep, d), want); err != nil {
		r.mismatch(o, "decor", err)
	}
	if measured {
		r.add("session", ac.minus(fc).minus(dc))
		r.add("session.encode", ec).extra += float64(n)
	}
	return ac.plus(ec)
}

// ledger is what a replay leaves once its servers are released.
type ledger struct {
	acc    map[string]*acc
	spans  []lspan
	parity error
	ops    int
	wall   time.Duration
	own    time.Duration // the tracer's share of wall
}

// replayAll replays the set-up and every served op of a traced run.
func replayAll(s *runState, p *phase) ledger {
	r := newReplay()
	defer r.close()
	t0 := time.Now()
	for i, o := range s.w.setup {
		r.op(o, s.setup[i], false)
	}
	for c, run := range p.runs {
		for i, want := range run.outcomes {
			if want.ok {
				r.op(s.w.ops[c][i], want, true)
			}
		}
	}
	return ledger{acc: r.acc, spans: r.tr.spans, parity: r.parity, ops: r.ops, wall: time.Since(t0), own: r.tr.own}
}

// layerMetrics reports the per-layer ledger of a traced run.
func layerMetrics(cfg config, s *runState, p *phase, d *detail) (map[string]metric, error) {
	on := replayAll(s, p)
	// The replay without spans is the replay's wall time less the
	// tracer's own. A second, untraced replay was tried instead and read
	// 17% faster or slower than the traced one from host noise alone.
	onWall, offWall := on.wall, on.wall-on.own
	d.ReplayOnS, d.ReplayOffS, d.ReplayedOps = onWall.Seconds(), offWall.Seconds(), on.ops
	s.fail(on.parity)

	// Client latency by route kind, from the served phase.
	var planLat, eventLat []time.Duration
	hits := 0
	for c, run := range p.runs {
		k := 0
		for i, o := range s.w.ops[c][:len(run.outcomes)] {
			if !run.outcomes[i].ok {
				continue
			}
			if o.field >= 0 {
				eventLat = append(eventLat, run.lat[k])
			} else {
				planLat = append(planLat, run.lat[k])
				if o.want == "hit" {
					hits++
				}
			}
			k++
		}
	}
	reqN, reqSum, err1 := histDelta(p.before.prom, p.after.prom, "decor_serve_request_seconds")
	_, planSum, err2 := histDelta(p.before.prom, p.after.prom, "decor_serve_plan_seconds")
	deltaN, deltaSum, err3 := histDelta(p.before.prom, p.after.prom, "decor_session_delta_seconds")
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perCall := func(name, key string, f func(a *acc) float64, unit string) {
		a := on.acc[key]
		if a == nil || a.n == 0 {
			d.ZeroLayers = append(d.ZeroLayers, name)
			put(name, 0, unit)
			return
		}
		put(name, f(a), unit)
	}
	msPer := func(a *acc) float64 { return ms(a.total.dur) / float64(a.n) }
	allocsPer := func(a *acc) float64 { return float64(a.total.allocs) / float64(a.n) }
	bytesPer := func(a *acc) float64 { return float64(a.total.bytes) / float64(a.n) }
	extraPer := func(a *acc) float64 { return a.extra / float64(a.n) }

	if len(planLat) > 0 && reqN > 0 {
		put("transport.ms_per_op", ms(mean(planLat))-reqSum/reqN*1000, "ms")
		put("service.wait_ms_per_op", (reqSum-planSum)/float64(len(planLat))*1000, "ms")
		put("service.cache_hit_share", float64(hits)/float64(len(planLat)), "ratio")
	} else {
		for _, n := range []string{"transport.ms_per_op", "service.wait_ms_per_op"} {
			d.ZeroLayers = append(d.ZeroLayers, n)
			put(n, 0, "ms")
		}
		put("service.cache_hit_share", 0, "ratio")
	}
	perCall("service.self_ms_per_op", "service", msPer, "ms")
	perCall("service.allocs_per_op", "service", allocsPer, "count")
	perCall("service.bytes_per_op", "service", bytesPer, "B")
	perCall("lowdisc.points_ms_per_plan", "lowdisc", msPer, "ms")
	perCall("coverage.build_ms_per_plan", "coverage", msPer, "ms")
	perCall("coverage.build_bytes_per_plan", "coverage", bytesPer, "B")
	perCall("decor.sensors_ms_per_plan", "decor.sensors", msPer, "ms")
	perCall("decor.fail_ms_per_op", "decor.fail", msPer, "ms")
	for _, kind := range []struct{ name, key, per string }{{"deploy", "core.deploy", "plan"}, {"repair", "core.repair", "event"}} {
		perCall("core."+kind.name+"_ms_per_"+kind.per, kind.key, msPer, "ms")
		perCall("core."+kind.name+"_allocs_per_"+kind.per, kind.key, allocsPer, "count")
		perCall("core."+kind.name+"_bytes_per_"+kind.per, kind.key, bytesPer, "B")
		for _, meth := range methods {
			perCall("core."+kind.name+"_ms."+meth, kind.key+"."+meth, msPer, "ms")
		}
	}
	perCall("core.rounds_per_plan", "core.deploy", extraPer, "count")
	perCall("session.self_ms_per_event", "session", msPer, "ms")
	perCall("session.allocs_per_event", "session", allocsPer, "count")
	perCall("session.bytes_per_event", "session", bytesPer, "B")
	perCall("session.encode_us_per_delta", "session.encode", func(a *acc) float64 { return msPer(a) * 1000 }, "us")
	perCall("session.delta_bytes", "session.encode", extraPer, "B")
	if len(eventLat) > 0 && deltaN > 0 {
		put("session.outside_apply_ms_per_event", ms(mean(eventLat))-deltaSum/deltaN*1000, "ms")
	} else {
		d.ZeroLayers = append(d.ZeroLayers, "session.outside_apply_ms_per_event")
		put("session.outside_apply_ms_per_event", 0, "ms")
	}
	put("trace.overhead_pct", on.own.Seconds()/offWall.Seconds()*100, "%")

	if cfg.spansDir != "" {
		if err := writeSpans(cfg, p, on); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// writeSpans writes the client spans, then the replay spans, as JSONL.
func writeSpans(cfg config, p *phase, l ledger) error {
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var client []span
	for _, run := range p.runs {
		client = append(client, run.spans...)
	}
	sort.Slice(client, func(i, j int) bool { return client[i].Start < client[j].Start })
	for _, sp := range client {
		enc.Encode(sp)
	}
	for _, sp := range l.spans {
		enc.Encode(sp)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
