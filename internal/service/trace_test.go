package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"decor/internal/obs"
)

// tracedServer is a testServer with private tracer and flight recorder so
// parallel tests sharing the process-wide defaults cannot interfere.
func tracedServer(t *testing.T, cfg Config) (*testServer, *obs.Tracer, *obs.FlightRecorder) {
	t.Helper()
	tr := obs.NewTracer(1024)
	fr := obs.NewFlightRecorder(4 * 128)
	cfg.Tracer = tr
	cfg.Flight = fr
	return newTestServer(t, cfg), tr, fr
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.Unmarshal(b, into); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, b)
		}
	}
	return resp.StatusCode
}

// TestResponseTraceRetrievable is the ISSUE's acceptance path: a plan
// request returns X-Decor-Trace, and /debug/traces?trace=<id> serves that
// request's span tree, including the spans recorded inside the planner.
func TestResponseTraceRetrievable(t *testing.T) {
	s, _, _ := tracedServer(t, Config{})
	status, hdr, _ := s.post(t, "/v1/plan", planBody(31))
	if status != http.StatusOK {
		t.Fatalf("plan status = %d", status)
	}
	id := hdr.Get(traceHeader)
	if id == "" {
		t.Fatal("response missing " + traceHeader)
	}
	var spans []obs.SpanRecord
	if st := getJSON(t, s.ts.URL+"/debug/traces?trace="+id, &spans); st != http.StatusOK {
		t.Fatalf("/debug/traces?trace=%s status = %d", id, st)
	}
	byName := map[string]obs.SpanRecord{}
	for _, sp := range spans {
		if sp.Trace != id {
			t.Errorf("span %s carries trace %s, want %s", sp.Name, sp.Trace, id)
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{"/v1/plan", "parse", "execute", "plan.run", "core.deploy"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace missing span %q, got %v", want, names(spans))
		}
	}
	// The tree hangs together: parse and execute under the root, the
	// plan.run under execute, the planner's core.deploy below.
	rootSpan := byName["/v1/plan"]
	if rootSpan.Parent != "" {
		t.Errorf("root has parent %q", rootSpan.Parent)
	}
	if byName["parse"].Parent != rootSpan.Span || byName["execute"].Parent != rootSpan.Span {
		t.Error("parse/execute are not children of the request root")
	}
	if byName["plan.run"].Parent != byName["execute"].Span {
		t.Error("plan.run is not a child of execute")
	}
	if byName["plan.run"].Attr == "" || !strings.Contains(byName["plan.run"].Attr, "queue_wait_ms=") {
		t.Errorf("plan.run attr = %q, want queue_wait_ms", byName["plan.run"].Attr)
	}
	if byName["core.deploy"].Parent != byName["plan.run"].Span {
		t.Errorf("core.deploy parent = %q, want plan.run %q",
			byName["core.deploy"].Parent, byName["plan.run"].Span)
	}

}

// TestTraceShapePinned pins each traced request's span tree as a
// multiset of (span name, parent name, attr keys), recorded before the
// timed phases moved onto one starter, and checks that every request adds
// one decor_serve_request_seconds observation and every planned request one
// decor_serve_plan_seconds observation.
func TestTraceShapePinned(t *testing.T) {
	s, tr, _ := tracedServer(t, Config{})
	for _, tc := range []struct {
		name, path, body string
		want             map[string]int
	}{
		{"plan grid-small", "/v1/plan",
			`{"field_side":50,"k":2,"rs":4,"num_points":500,"seed":41,"scatter":40,"method":"grid-small"}`,
			map[string]int{
				"/v1/plan<[]": 1, "parse</v1/plan[]": 1, "execute</v1/plan[]": 1,
				"plan.run<execute[queue_wait_ms]":            1,
				"core.deploy<plan.run[method,rounds,placed]": 1,
				"core.round<core.deploy[round,placed]":       7,
			}},
		{"plan centralized", "/v1/plan", planBody(42), map[string]int{
			"/v1/plan<[]": 1, "parse</v1/plan[]": 1, "execute</v1/plan[]": 1,
			"plan.run<execute[queue_wait_ms]":     1,
			"core.deploy<plan.run[method,placed]": 1,
		}},
		{"repair grid-small", "/v1/repair",
			`{"field_side":50,"k":1,"rs":6,"num_points":400,"seed":3,
			"sensors":[{"id":10,"x":10,"y":10},{"id":11,"x":40,"y":40},{"id":12,"x":25,"y":25}],
			"method":"grid-small","failed":[10,12]}`,
			map[string]int{
				"/v1/repair<[]": 1, "parse</v1/repair[]": 1, "execute</v1/repair[]": 1,
				"plan.run<execute[queue_wait_ms]":            1,
				"core.deploy<plan.run[method,rounds,placed]": 1,
				"core.round<core.deploy[round,placed]":       13,
			}},
	} {
		before := s.reg.Snapshot().Histograms
		status, hdr, body := s.post(t, tc.path, tc.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", tc.name, status, body)
		}
		id, err := obs.ParseTraceID(hdr.Get(traceHeader))
		if err != nil {
			t.Fatalf("%s: %s header: %v", tc.name, traceHeader, err)
		}
		got := traceShape(t, tr, id)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: trace shape\n got %v\nwant %v", tc.name, got, tc.want)
		}
		after := s.reg.Snapshot().Histograms
		for _, name := range []string{obs.ServeRequestSeconds, obs.ServePlanSeconds} {
			if n := after[name].Count - before[name].Count; n != 1 {
				t.Errorf("%s: %d %s observations, want 1", tc.name, n, name)
			}
		}
	}
}

// traceShape waits for trace id's root span to land in tr, then returns
// the trace's spans as a multiset of "name<parent[attr keys]".
func traceShape(t *testing.T, tr *obs.Tracer, id obs.TraceID) map[string]int {
	t.Helper()
	var spans []obs.SpanRecord
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		spans = tr.Trace(id)
		rooted := false
		for _, sp := range spans {
			rooted = rooted || sp.Parent == ""
		}
		if rooted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s: no root span recorded", id)
		}
	}
	nameOf := map[string]string{}
	for _, sp := range spans {
		nameOf[sp.Span] = sp.Name
	}
	shape := map[string]int{}
	for _, sp := range spans {
		var keys []string
		for _, kv := range strings.Fields(sp.Attr) {
			k, _, _ := strings.Cut(kv, "=")
			keys = append(keys, k)
		}
		shape[sp.Name+"<"+nameOf[sp.Parent]+"["+strings.Join(keys, ",")+"]"]++
	}
	return shape
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

func TestLabeledResponseCounter(t *testing.T) {
	s, _, _ := tracedServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/plan", strings.NewReader(planBody(32)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s.post(t, "/v1/plan", planBody(32)) // no tenant header

	var sb strings.Builder
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`decor_serve_responses_total{route="/v1/plan",status="200",tenant="acme"} 1`,
		`decor_serve_responses_total{route="/v1/plan",status="200",tenant="none"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestTenantCardinalityCapped: the response counter's tenant label and
// the session's decor_session_tenant_* labels each fold tenants beyond
// obs.MaxTenantLabels into "other", while tenants admitted before the cap
// keep their identity.
func TestTenantCardinalityCapped(t *testing.T) {
	s, _, _ := tracedServer(t, Config{})
	const n = obs.MaxTenantLabels + 8
	tenant := func(i int) string { return fmt.Sprintf("tenant-%03d", i) }
	for i := 0; i < n; i++ {
		if got := s.svc.tenants.Label(tenant(i)); i < obs.MaxTenantLabels && got == "other" {
			t.Fatalf("tenant %d folded too early", i)
		} else if i >= obs.MaxTenantLabels && got != "other" {
			t.Fatalf("tenant %d = %q, want other", i, got)
		}
	}
	if got := s.svc.tenants.Label(tenant(0)); got != tenant(0) {
		t.Fatalf("existing tenant remapped to %q", got)
	}

	// The session manager keeps its own cap: one field per tenant, then
	// one event each from the first and the last tenant.
	for i := 0; i < n; i++ {
		if status, _, body := s.do(t, "POST", "/v1/fields", tenant(i), fieldBody("f", uint64(i+1))); status != http.StatusCreated {
			t.Fatalf("create for %s: status %d, body %s", tenant(i), status, body)
		}
	}
	for _, i := range []int{0, n - 1} {
		if status, _, body := s.do(t, "POST", "/v1/fields/f/events", tenant(i), "{\"failed\":[1]}\n"); status != http.StatusOK {
			t.Fatalf("event for %s: status %d, body %s", tenant(i), status, body)
		}
	}
	snap := s.reg.Snapshot()
	for _, name := range []string{obs.SessionTenantCreated, obs.SessionTenantDeltas} {
		labels := 0
		for key := range snap.Counters {
			if strings.HasPrefix(key, name+"{") {
				labels++
			}
		}
		other := snap.Counters[name+`{tenant="other"}`]
		first := snap.Counters[name+`{tenant="`+tenant(0)+`"}`]
		switch name {
		case obs.SessionTenantCreated:
			if labels != obs.MaxTenantLabels+1 || other != n-obs.MaxTenantLabels || first != 1 {
				t.Errorf("%s: %d label values, other=%d, %s=%d; want %d, %d, 1",
					name, labels, other, tenant(0), first, obs.MaxTenantLabels+1, n-obs.MaxTenantLabels)
			}
		case obs.SessionTenantDeltas:
			if labels != 2 || other != 1 || first != 1 {
				t.Errorf("%s: %d label values, other=%d, %s=%d; want 2, 1, 1", name, labels, other, tenant(0), first)
			}
		}
	}
}

// TestFlightCapturedOn5xx forces a 503 (admitted bound full) and checks
// the flight recorder's contents were frozen for /debug/flight.
func TestFlightCapturedOn5xx(t *testing.T) {
	s, g := gatedServer(t)
	leave := fill(t, g, "")
	status, _, _ := s.post(t, "/v1/plan", planBody(33))
	leave()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	var dump struct {
		Live    []obs.FlightEvent `json:"live"`
		Last5xx []obs.FlightEvent `json:"last_5xx"`
	}
	if st := getJSON(t, s.ts.URL+"/debug/flight", &dump); st != http.StatusOK {
		t.Fatalf("/debug/flight status = %d", st)
	}
	if len(dump.Last5xx) == 0 {
		t.Fatal("no frozen flight dump after a 5xx")
	}
	foundReject := false
	for _, ev := range dump.Last5xx {
		if ev.Kind == "admit.reject" {
			foundReject = true
		}
	}
	if !foundReject {
		t.Errorf("frozen dump lacks the admission rejection: %+v", dump.Last5xx)
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	off, _, _ := tracedServer(t, Config{})
	if st := getJSON(t, off.ts.URL+"/debug/pprof/", nil); st != http.StatusNotFound {
		t.Fatalf("pprof without flag: status = %d, want 404", st)
	}
	on, _, _ := tracedServer(t, Config{EnablePprof: true})
	resp, err := http.Get(on.ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag: status = %d, want 200", resp.StatusCode)
	}
}
