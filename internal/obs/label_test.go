package obs

import (
	"strings"
	"testing"
)

// TestLabelsEscapingAndSanitizing: a label value is escaped into its
// series key, so a hostile value cannot break the exposition.
func TestLabelsEscapingAndSanitizing(t *testing.T) {
	r := NewRegistry()
	r.CounterL("decor_x_total", "route", "plan", "tenant", `va"l\ue`+"\n").Inc()
	want := `decor_x_total{route="plan",tenant="va\"l\\ue\n"}`
	if _, ok := r.Snapshot().Counters[want]; !ok {
		t.Fatalf("series %s missing from %v", want, r.Snapshot().Counters)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	base := r.Counter("decor_test_total")
	plan := r.CounterL("decor_test_total", "route", "plan")
	repair := r.CounterL("decor_test_total", "route", "repair")
	if base == plan || plan == repair {
		t.Fatal("labeled series must be distinct instruments")
	}
	// The handle is stable: looking the series up again returns the same
	// counter (hot paths cache this pointer and stay atomic-only).
	if again := r.CounterL("decor_test_total", "route", "plan"); again != plan {
		t.Fatal("labeled lookup not stable")
	}
	base.Add(1)
	plan.Add(2)
	repair.Add(3)
	s := r.Snapshot()
	if got := s.Counters[`decor_test_total{route="plan"}`]; got != 2 {
		t.Fatalf("plan series = %d, want 2", got)
	}
	if got := s.Counters["decor_test_total"]; got != 1 {
		t.Fatalf("base series = %d, want 1", got)
	}
}

func TestLabeledPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterL("decor_req_total", "route", "plan").Add(2)
	r.CounterL("decor_req_total", "route", "repair").Add(5)
	r.Counter("decor_req_zz_total").Add(9) // sorts between family and labeled series by raw byte order

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// One # TYPE line per family, labeled variants contiguous under it.
	if strings.Count(out, "# TYPE decor_req_total counter") != 1 {
		t.Fatalf("want exactly one TYPE line for decor_req_total:\n%s", out)
	}
	for _, want := range []string{
		"decor_req_total{route=\"plan\"} 2\n",
		"decor_req_total{route=\"repair\"} 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// The labeled series must not split the family's TYPE block: plan and
	// repair lines are adjacent.
	pi := strings.Index(out, `decor_req_total{route="plan"}`)
	ri := strings.Index(out, `decor_req_total{route="repair"}`)
	zi := strings.Index(out, "decor_req_zz_total 9")
	if !(pi < ri && ri < zi) {
		t.Fatalf("family grouping broken (plan@%d repair@%d zz@%d):\n%s", pi, ri, zi, out)
	}
}
