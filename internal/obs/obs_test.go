package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Error("Counter is not idempotent per name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds")
	// le semantics are inclusive: 1 lands in the 1 s bucket, 10 in the
	// 10 s one, anything above the last bound in the overflow bucket.
	for _, v := range []float64{0.5, 1, 1.0000001, 10, 10.5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h_seconds"]
	wantCounts := []uint64{0, 0, 0, 0, 0, 0, 2, 2, 2}
	if !reflect.DeepEqual(snap.Counts, wantCounts) {
		t.Errorf("bucket counts = %v, want %v", snap.Counts, wantCounts)
	}
	if snap.Count != 6 {
		t.Errorf("count = %d, want 6", snap.Count)
	}
	if math.Abs(snap.Sum-123.0000001) > 1e-9 {
		t.Errorf("sum = %g, want 123.0000001", snap.Sum)
	}
	if want := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}; !reflect.DeepEqual(snap.Buckets, want) {
		t.Errorf("buckets = %v, want %v", snap.Buckets, want)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("depth").Add(1)
				r.Histogram("lat_seconds").Observe(1e-4)
				sp := Start(nil, "", r.Histogram("span_seconds"))
				sp.End()
			}
		}()
	}
	// Concurrent snapshots must not race with updates.
	for i := 0; i < 10; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	total := int64(workers * perWorker)
	if got := r.Counter("shared_total").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("depth").Value(); got != float64(total) {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	if got := r.Histogram("lat_seconds").snapshot().Count; got != uint64(total) {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	if got := r.Histogram("span_seconds").snapshot().Count; got != uint64(total) {
		t.Errorf("span count = %d, want %d", got, total)
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	snap := r.Snapshot()
	r.Counter("c_total").Add(10)
	if snap.Counters["c_total"] != 1 {
		t.Errorf("snapshot mutated by later updates: %v", snap.Counters)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(1.25)
	r.Histogram("h_seconds").Observe(1.5)
	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
}
