package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"decor/internal/chaos"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
)

// goldenDeltaStreams pins the SHA-256 of one seeded session delta
// stream per planner: the initial deploy plus eight failure repairs on
// a 12000-point field, which spans several coverage tiles so every
// engine's tile-crossing updates are exercised.
var goldenDeltaStreams = map[string]string{
	"grid-small":    "8faabffba3f6dbe2271680e42e578cb7b2c564733213e2b8720df4b998d1eace",
	"grid-big":      "e27707be346947a40c1d2737793c776bf2702c91574a93b74753ea535f18a88a",
	"voronoi-small": "9c99fc40f294a17498348148c0cabe3edfa030231c9be84b4f8ed9c611438bfb",
	"voronoi-big":   "398c71df7cc57fcd8a85428ad1ee1eef31721722e96b88883ce6f1203c802871",
	"centralized":   "b684a1922ddd40a792271670886a5e96ba78a7f1aa322d1ad0dc81dd0c2fd802",
	"random":        "18d900c6fe86fab44a2e3d8815a30956a3e3f3d5c6271f249c6f0a36e22e8afc",
}

// goldenSpec is the field every pinned stream runs on.
func goldenSpec(method string) Spec {
	return Spec{
		FieldSide: 245,
		K:         2,
		Rs:        4,
		NumPoints: 12000,
		Generator: "halton",
		Seed:      77,
		Scatter:   300,
		Method:    method,
	}
}

// goldenEvents is the pinned streams' failure-event list.
func goldenEvents() []chaos.FailureEvent {
	spec := goldenSpec("")
	ids := make([]int, spec.Scatter)
	for i := range ids {
		ids[i] = i
	}
	return chaos.TrafficFromPlan(chaos.BoundedPlan(chaos.DefaultScenario(chaos.ArchGrid, spec.Seed)), ids, 8)
}

// createGolden opens one method's pinned session and writes its initial
// delta to stream.
func createGolden(t *testing.T, m *Manager, method string, stream *bytes.Buffer) {
	t.Helper()
	_, initial, err := m.Create("golden", method, goldenSpec(method))
	if err != nil {
		t.Fatalf("%s create: %v", method, err)
	}
	stream.Write(mustJSON(t, initial))
	stream.WriteByte('\n')
}

// applyGolden applies events to one method's pinned session, writing
// each delta to stream.
func applyGolden(t *testing.T, m *Manager, method string, events []chaos.FailureEvent, stream *bytes.Buffer) {
	t.Helper()
	for ei, ev := range events {
		d, err := m.Apply("golden", method, ev.IDs)
		if err != nil {
			t.Fatalf("%s event %d: %v", method, ei, err)
		}
		stream.Write(mustJSON(t, d))
		stream.WriteByte('\n')
	}
}

func checkGolden(t *testing.T, method string, stream *bytes.Buffer) {
	t.Helper()
	sum := sha256.Sum256(stream.Bytes())
	if got, want := hex.EncodeToString(sum[:]), goldenDeltaStreams[method]; got != want {
		t.Errorf("%s delta stream hash = %s, want %s", method, got, want)
	}
}

func TestGoldenDeltaStreams(t *testing.T) {
	m := newTestManager(t, Config{})
	events := goldenEvents()
	for method := range goldenDeltaStreams {
		var stream bytes.Buffer
		createGolden(t, m, method, &stream)
		applyGolden(t, m, method, events, &stream)
		checkGolden(t, method, &stream)
	}
}

// Sessions created before the registry evicts their point set keep
// using it: filling the registry with distinct sets between two halves
// of the event list leaves every pinned stream unchanged.
func TestGoldenDeltaStreamsSurvivePointSetEviction(t *testing.T) {
	m := newTestManager(t, Config{})
	events := goldenEvents()
	half := len(events) / 2
	streams := make(map[string]*bytes.Buffer)
	for method := range goldenDeltaStreams {
		streams[method] = new(bytes.Buffer)
		createGolden(t, m, method, streams[method])
		applyGolden(t, m, method, events[:half], streams[method])
	}
	spec := goldenSpec("")
	field := geom.Square(spec.FieldSide)
	held := coverage.SharedPointSet(lowdisc.Halton{}, spec.NumPoints, field, spec.Rs)
	// 64 distinct sets of about 1 MB each: twice the registry's budget.
	for n := 20000; n < 20064; n++ {
		coverage.SharedPointSet(lowdisc.Halton{}, n, geom.Square(200), spec.Rs)
	}
	if coverage.SharedPointSet(lowdisc.Halton{}, spec.NumPoints, field, spec.Rs) == held {
		t.Fatal("the sessions' point set was not evicted: the check below proves nothing")
	}
	for method, stream := range streams {
		applyGolden(t, m, method, events[half:], stream)
		checkGolden(t, method, stream)
	}
}
