package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact text exposition output for a small
// registry, including cumulative bucket counts and name ordering.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("decor_b_total").Add(7)
	r.Counter("decor_a_total").Add(2)
	r.Gauge("decor_queue_depth").Set(3)
	h := r.Histogram("decor_round_seconds")
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(0.002)
	h.Observe(50) // overflow

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE decor_a_total counter
decor_a_total 2
# TYPE decor_b_total counter
decor_b_total 7
# TYPE decor_queue_depth gauge
decor_queue_depth 3
# TYPE decor_round_seconds histogram
decor_round_seconds_bucket{le="1e-06"} 0
decor_round_seconds_bucket{le="1e-05"} 0
decor_round_seconds_bucket{le="0.0001"} 0
decor_round_seconds_bucket{le="0.001"} 1
decor_round_seconds_bucket{le="0.01"} 3
decor_round_seconds_bucket{le="0.1"} 3
decor_round_seconds_bucket{le="1"} 3
decor_round_seconds_bucket{le="10"} 3
decor_round_seconds_bucket{le="+Inf"} 4
decor_round_seconds_sum 50.0045
decor_round_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// promLine is the text exposition's line grammar: a # TYPE line, or a
// sample with an optional set of quoted, escaped label values and one
// value.
var promLine = regexp.MustCompile(`^(?:# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|histogram)|` +
	`[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (\S+))$`)

// TestPrometheusParseable: every line of an exposition with each kind of
// instrument, and a label value that needs escaping, parses under the
// strict grammar with a numeric sample value.
func TestPrometheusParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter(SimEvents).Add(11)
	r.CounterL(ServeResponses, "route", "/v1/plan", "status", "200", "tenant", `a"b\c`+"\n").Inc()
	r.Gauge(SimQueueDepth).Set(0.5)
	sp := Start(nil, "", r.Histogram(CoreRoundSeconds))
	sp.End()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed line %q", line)
		} else if _, err := strconv.ParseFloat(m[1], 64); m[1] != "" && err != nil {
			t.Errorf("sample value in %q: %v", line, err)
		}
	}
}
