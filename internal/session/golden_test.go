package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"decor/internal/chaos"
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

func TestGoldenDeltaStreams(t *testing.T) {
	m := newTestManager(t, Config{Shards: 2})
	for method, want := range goldenDeltaStreams {
		spec := Spec{
			FieldSide: 245,
			K:         2,
			Rs:        4,
			NumPoints: 12000,
			Generator: "halton",
			Seed:      77,
			Scatter:   300,
			Method:    method,
		}
		ids := make([]int, spec.Scatter)
		for i := range ids {
			ids[i] = i
		}
		plan := chaos.BoundedPlan(chaos.DefaultScenario(chaos.ArchGrid, spec.Seed))
		var stream bytes.Buffer
		_, initial, err := m.Create("golden", method, spec)
		if err != nil {
			t.Fatalf("%s create: %v", method, err)
		}
		stream.Write(mustJSON(t, initial))
		stream.WriteByte('\n')
		for ei, ev := range chaos.TrafficFromPlan(plan, ids, 8) {
			d, err := m.Apply("golden", method, ev.IDs)
			if err != nil {
				t.Fatalf("%s event %d: %v", method, ei, err)
			}
			stream.Write(mustJSON(t, d))
			stream.WriteByte('\n')
		}
		sum := sha256.Sum256(stream.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s delta stream hash = %s, want %s", method, got, want)
		}
	}
}
