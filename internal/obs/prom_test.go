package obs

import (
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
	h := r.Histogram("decor_round_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(0.002)
	h.Observe(5) // overflow

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
decor_round_seconds_bucket{le="0.001"} 1
decor_round_seconds_bucket{le="0.01"} 3
decor_round_seconds_bucket{le="0.1"} 3
decor_round_seconds_bucket{le="+Inf"} 4
decor_round_seconds_sum 5.0045
decor_round_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusParseable runs a coarse parser over a standard-registry
// dump: every non-comment line must be "name[{le="..."}] value".
func TestPrometheusParseable(t *testing.T) {
	r := NewRegistry()
	RegisterStandard(r)
	r.Counter(SimEvents).Add(11)
	sp := Start(nil, "", r.Histogram(CoreRoundSeconds, DefLatencyBuckets))
	sp.End()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "\"}") || !strings.Contains(name, `le="`) {
				t.Errorf("malformed label set in %q", line)
			}
			name = name[:i]
		}
		if sanitizeName(name) != name {
			t.Errorf("invalid metric name %q", name)
		}
	}
}
