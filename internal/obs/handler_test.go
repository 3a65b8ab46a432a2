package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// scrape GETs the handler over a real HTTP round trip and returns the
// body.
func scrape(t *testing.T, url string) (status int, contentType, body string) {
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
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

func TestHandlerServesLiveExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("decor_test_requests_total").Add(3)
	reg.Gauge("decor_test_depth").Set(1.5)
	reg.Histogram("decor_test_seconds").Observe(0.05)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	status, ct, body := scrape(t, srv.URL)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	for _, want := range []string{
		"# TYPE decor_test_requests_total counter\ndecor_test_requests_total 3\n",
		"# TYPE decor_test_depth gauge\ndecor_test_depth 1.5\n",
		"# TYPE decor_test_seconds histogram\n",
		`decor_test_seconds_bucket{le="0.1"} 1`,
		`decor_test_seconds_bucket{le="+Inf"} 1`,
		"decor_test_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q in:\n%s", want, body)
		}
	}

	// The endpoint is live, not an exit dump: a second scrape sees
	// updates made after the first.
	reg.Counter("decor_test_requests_total").Add(4)
	_, _, body2 := scrape(t, srv.URL)
	if !strings.Contains(body2, "decor_test_requests_total 7") {
		t.Errorf("second scrape not live, got:\n%s", body2)
	}
}

func TestHandlerRejectsNonGet(t *testing.T) {
	srv := httptest.NewServer(NewRegistry().Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestHandlerDeterministicOrdering(t *testing.T) {
	// Two registries populated in opposite orders must scrape
	// byte-identically: exposition order is (family, series), never map
	// or insertion order.
	names := []string{"decor_b_total", "decor_a_total", "decor_c_total"}
	reg1, reg2 := NewRegistry(), NewRegistry()
	for _, n := range names {
		reg1.Counter(n).Inc()
	}
	for i := len(names) - 1; i >= 0; i-- {
		reg2.Counter(names[i]).Inc()
	}
	reg1.CounterL("decor_a_total", "r", "x").Inc()
	reg2.CounterL("decor_a_total", "r", "x").Inc()
	var b1, b2 strings.Builder
	if err := reg1.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("exposition not deterministic:\n--- reg1:\n%s--- reg2:\n%s", b1.String(), b2.String())
	}
	// And repeated scrapes of the same registry are byte-identical too.
	var b3 strings.Builder
	if err := reg1.WritePrometheus(&b3); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b3.String() {
		t.Fatal("repeated scrape differs")
	}
}

func TestDebugTracesHandler(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartTrace("req", nil)
	ctx := root.Context(context.Background())
	c := Start(ctx, "phase", nil)
	c.End()
	root.End()
	id := root.TraceID()

	srv := httptest.NewServer(tr.DebugHandler())
	defer srv.Close()

	status, ct, body := scrape(t, srv.URL)
	if status != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("summary: status=%d ct=%q", status, ct)
	}
	var sums []TraceSummary
	if err := json.Unmarshal([]byte(body), &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Trace != id.String() || sums[0].Spans != 2 {
		t.Fatalf("summaries = %+v", sums)
	}

	status, _, body = scrape(t, srv.URL+"?trace="+id.String())
	if status != http.StatusOK {
		t.Fatalf("drill-down status = %d (%s)", status, body)
	}
	var spans []SpanRecord
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("drill-down spans = %d, want 2", len(spans))
	}

	status, ct, body = scrape(t, srv.URL+"?format=jsonl")
	if status != http.StatusOK || !strings.HasPrefix(ct, "application/jsonl") {
		t.Fatalf("jsonl: status=%d ct=%q", status, ct)
	}
	if got := strings.Count(strings.TrimSpace(body), "\n") + 1; got != 2 {
		t.Fatalf("jsonl lines = %d, want 2", got)
	}

	if status, _, _ = scrape(t, srv.URL+"?trace=0000000000000bad"); status != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", status)
	}
	if status, _, _ = scrape(t, srv.URL+"?trace=not-hex"); status != http.StatusBadRequest {
		t.Fatalf("bad trace id status = %d, want 400", status)
	}
}
