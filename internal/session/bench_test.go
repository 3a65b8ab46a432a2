package session

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"decor/internal/chaos"
	"decor/internal/sim"
)

// The 1e5-point session-vs-stateless comparison (ISSUE 8 acceptance):
// the same field regime as core's BenchmarkPlace — 0.2 points/unit²,
// rs = 4, k = 1, n/40 scattered sensors — driven through the session
// delta path and through the stateless /v1/repair-equivalent full
// replan. BENCH_session.json records both; an incremental delta must
// cost at least 10× fewer allocs/op than the full replan.

const benchPoints = 100_000

func benchSpec() Spec {
	return Spec{
		FieldSide: math.Sqrt(benchPoints / 0.2),
		K:         1,
		Rs:        4,
		NumPoints: benchPoints,
		Generator: "halton",
		Seed:      99,
		Scatter:   benchPoints / 40,
		Method:    "centralized",
	}
}

// benchSession wraps a live session state with the bookkeeping the
// driver needs to keep failing sensors forever: the sorted alive-ID
// list, updated from each delta's Placed count. The planner assigns
// placements sequential IDs starting at (largest live ID)+1, so since
// victims always come off the top of the list the new IDs are exactly
// the next integers after the surviving maximum. ring is the session's
// delta-ring capacity; the benchmarks keep none.
type benchSession struct {
	st    *state
	alive []int
	ring  int
}

func newBenchSession(tb testing.TB, spec Spec, ring int) *benchSession {
	tb.Helper()
	st, initial, err := newState(context.Background(), "bench", "f", spec, ring)
	if err != nil {
		tb.Fatalf("build session: %v", err)
	}
	b := &benchSession{st: st, ring: ring}
	for id := 0; id < spec.Scatter; id++ {
		b.alive = append(b.alive, id)
	}
	b.grow(initial.Placed)
	return b
}

func (b *benchSession) grow(placed int) {
	next := 0
	if len(b.alive) > 0 {
		next = b.alive[len(b.alive)-1] + 1
	}
	for i := 0; i < placed; i++ {
		b.alive = append(b.alive, next)
		next++
	}
}

// step fails the three most recently placed sensors and repairs.
func (b *benchSession) step(tb testing.TB) Delta {
	victims := append([]int(nil), b.alive[len(b.alive)-3:]...)
	d, err := b.st.apply(context.Background(), victims, b.ring)
	if err != nil {
		tb.Fatalf("apply: %v", err)
	}
	b.alive = b.alive[:len(b.alive)-3]
	b.grow(d.Placed)
	return d
}

// BenchmarkSessionDelta measures one incremental failure→repair delta
// on a warm 1e5-point session. Setup (field build + initial deploy) is
// excluded; each iteration is exactly what one streamed event costs.
func BenchmarkSessionDelta(b *testing.B) {
	s := newBenchSession(b, benchSpec(), 0)
	s.step(b) // warm the incremental path before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(b)
	}
}

// BenchmarkSessionRepair measures one incremental repair per method on
// a resident field of perfbench field-events' shape: side 200, k 3,
// rs 4, 20000 Halton points, 800 scattered sensors. Each iteration
// applies the next 1–3-sensor failure event of a chaos.TrafficFromPlan
// schedule over the session's initial sensors. Setup, including a
// fresh session when the schedule runs out, is excluded from the timing.
func BenchmarkSessionRepair(b *testing.B) {
	for _, method := range []string{"grid-small", "grid-big", "voronoi-small", "voronoi-big", "centralized", "random"} {
		b.Run("method="+method, func(b *testing.B) {
			spec := Spec{
				FieldSide: 200, K: 3, Rs: 4, NumPoints: 20000,
				Generator: "halton", Seed: 14, Scatter: 800, Method: method,
			}
			var st *state
			var events []chaos.FailureEvent
			reset := func() {
				var initial Delta
				var err error
				if st, initial, err = newState(context.Background(), "bench", "f", spec, 0); err != nil {
					b.Fatalf("build session: %v", err)
				}
				// Scattered sensors and the initial placements hold the
				// IDs 0..TotalSensors-1.
				ids := make([]int, initial.TotalSensors)
				for j := range ids {
					ids[j] = j
				}
				events = chaos.TrafficFromPlan(sim.FaultPlan{Seed: 7}, ids, 1<<20)
			}
			reset()
			apply := func() {
				if _, err := st.apply(context.Background(), events[0].IDs, 0); err != nil {
					b.Fatalf("apply: %v", err)
				}
				events = events[1:]
			}
			apply() // warm the repair path before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(events) == 0 {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
				apply()
			}
		})
	}
}

// BenchmarkStatelessRepair measures the equivalent stateless
// /v1/repair: rebuild the whole field from the spec, fail the same-size
// batch, and replan. This is what every event costs without sessions.
func BenchmarkStatelessRepair(b *testing.B) {
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := spec.build()
		if err != nil {
			b.Fatal(err)
		}
		if err := d.FailSensors(0, 1, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := d.DeployContext(context.Background(), spec.Method); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDelta is one representative streamed event: a 3-failure repair
// with its replacement placements, the shape every NDJSON/SSE frame
// carries. Static so the encode benches need no 1e5-point field build.
func benchDelta() *Delta {
	return &Delta{
		FieldID: "bench-field", Seq: 42, Method: "centralized",
		Failed: []int{2501, 2502, 2503}, Placed: 3,
		Placements: []Point{
			{X: 101.52343, Y: 330.0078125}, {X: 98.25, Y: 331.875}, {X: 104.4921875, Y: 328.5},
		},
		TotalSensors: 2503, Messages: 118, Rounds: 2,
		CoverageK: 0.999871, Covered: true,
	}
}

// BenchmarkDeltaEncode is the hand-rolled wire encode of one delta into
// a reused buffer — the per-event serialization cost on the session
// streaming path (ISSUE 10). Steady state must be zero allocs/op.
func BenchmarkDeltaEncode(b *testing.B) {
	d := benchDelta()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = d.AppendJSON(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}

// BenchmarkDeltaEncodeStdlib is the same delta through reflection-based
// json.Marshal: the baseline the ≥10× encode-alloc gate compares
// against in scripts/benchstat.sh.
func BenchmarkDeltaEncodeStdlib(b *testing.B) {
	d := benchDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(d); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeltaEncodeAllocFree pins the structural property behind the
// encode gate: AppendJSON into a warm buffer performs zero heap
// allocations, so the ≥10× advantage over json.Marshal can never decay
// below any ratio the stdlib baseline implies.
func TestDeltaEncodeAllocFree(t *testing.T) {
	d := benchDelta()
	buf := make([]byte, 0, 1024)
	var err error
	if buf, err = d.AppendJSON(buf[:0]); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		buf, err = d.AppendJSON(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("Delta.AppendJSON into warm buffer: %.1f allocs/op, want 0", avg)
	}
}

// TestDeltaAllocAdvantage asserts the ISSUE 8 acceptance ratio directly
// (benchstat gates the absolute numbers; this pins the relationship):
// an incremental delta allocates at least 10× less than a stateless
// full replan on the same 1e5-point field.
func TestDeltaAllocAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-point field build in -short mode")
	}
	spec := benchSpec()
	s := newBenchSession(t, spec, 0)
	s.step(t) // warm
	delta := testing.AllocsPerRun(3, func() { s.step(t) })

	stateless := testing.AllocsPerRun(1, func() {
		d, err := spec.build()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.FailSensors(0, 1, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DeployContext(context.Background(), spec.Method); err != nil {
			t.Fatal(err)
		}
	})
	ratio := stateless / delta
	t.Logf("stateless %.0f allocs, delta %.0f allocs: %.1fx", stateless, delta, ratio)
	if ratio < 10 {
		t.Errorf("delta advantage %.1fx, want >= 10x (stateless %.0f vs delta %.0f allocs)",
			ratio, stateless, delta)
	}
}
