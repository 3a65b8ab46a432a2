package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestLabelsInternCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Labels("route", "plan", "tenant", "acme")
	b := r.Labels("tenant", "acme", "route", "plan") // different order, same set
	if a.String() != b.String() {
		t.Fatalf("label order not canonicalized: %q vs %q", a, b)
	}
	if want := `{route="plan",tenant="acme"}`; a.String() != want {
		t.Fatalf("rendered labels = %q, want %q", a, want)
	}
	// Same input pairs must yield the identical interned handle.
	if c := r.Labels("route", "plan", "tenant", "acme"); c != a {
		t.Fatalf("re-interning returned a different handle")
	}
	if z := r.Labels(); z.String() != "" {
		t.Fatalf("empty Labels = %q, want unlabeled", z)
	}
}

func TestLabelsEscapingAndSanitizing(t *testing.T) {
	r := NewRegistry()
	ls := r.Labels("bad key!", `va"l\ue`+"\n")
	if want := `{bad_key_="va\"l\\ue\n"}`; ls.String() != want {
		t.Fatalf("escaped labels = %q, want %q", ls, want)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	base := r.Counter("decor_test_total")
	plan := r.CounterL("decor_test_total", r.Labels("route", "plan"))
	repair := r.CounterL("decor_test_total", r.Labels("route", "repair"))
	if base == plan || plan == repair {
		t.Fatal("labeled series must be distinct instruments")
	}
	// The handle is stable: looking the series up again returns the same
	// counter (hot paths cache this pointer and stay atomic-only).
	if again := r.CounterL("decor_test_total", r.Labels("route", "plan")); again != plan {
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
	r.CounterL("decor_req_total", r.Labels("route", "plan")).Add(2)
	r.CounterL("decor_req_total", r.Labels("route", "repair")).Add(5)
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

func TestShardMergeAtScrape(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("decor_runs_total").Add(1)
	parent.Gauge("decor_depth").Set(2)
	parent.Histogram("decor_sec", []float64{1, 10}).Observe(0.5)

	s1, s2 := parent.Shard(), parent.Shard()
	s1.Counter("decor_runs_total").Add(10)
	s2.Counter("decor_runs_total").Add(100)
	s2.Counter("decor_only_shard_total").Add(7)
	s1.Gauge("decor_depth").Set(3)
	s1.Histogram("decor_sec", []float64{1, 10}).Observe(5)

	snap := parent.Snapshot()
	if got := snap.Counters["decor_runs_total"]; got != 111 {
		t.Fatalf("merged counter = %d, want 111", got)
	}
	if got := snap.Counters["decor_only_shard_total"]; got != 7 {
		t.Fatalf("shard-only counter = %d, want 7", got)
	}
	if got := snap.Gauges["decor_depth"]; got != 5 {
		t.Fatalf("merged gauge = %v, want 5 (sum)", got)
	}
	h := snap.Histograms["decor_sec"]
	if h.Count != 2 || h.Sum != 5.5 {
		t.Fatalf("merged histogram count=%d sum=%v, want 2/5.5", h.Count, h.Sum)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("merged buckets = %v", h.Counts)
	}
	// Shard updates are visible on the next scrape (live merge).
	s1.Counter("decor_runs_total").Add(1)
	if got := parent.Snapshot().Counters["decor_runs_total"]; got != 112 {
		t.Fatalf("second scrape = %d, want 112", got)
	}
}

func TestShardMergeBoundsConflictCounted(t *testing.T) {
	parent := NewRegistry()
	parent.Histogram("decor_sec", []float64{1}).Observe(0.5)
	sh := parent.Shard()
	sh.Histogram("decor_sec", []float64{2}).Observe(0.5)
	parent.Snapshot() // first scrape detects and counts the conflict
	snap := parent.Snapshot()
	if got := snap.Counters[ObsHistBoundsConflicts]; got < 1 {
		t.Fatalf("conflict counter = %d, want >= 1", got)
	}
	if h := snap.Histograms["decor_sec"]; h.Count != 1 {
		t.Fatalf("parent series polluted by mismatched shard: count=%d", h.Count)
	}
}

func TestShardConcurrentScrape(t *testing.T) {
	parent := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		sh := parent.Shard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sh.Counter("decor_x_total")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				parent.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := parent.Snapshot().Counters["decor_x_total"]; got != 4000 {
		t.Fatalf("merged total = %d, want 4000", got)
	}
}
