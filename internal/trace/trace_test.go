package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/obs"
	"decor/internal/protocol"
	"decor/internal/rng"
	"decor/internal/sim"
)

func runDeployment(t *testing.T) (*coverage.Map, core.Result, func() *coverage.Map) {
	t.Helper()
	field := geom.Square(40)
	pts := lowdisc.Halton{}.Points(300, field)
	build := func() *coverage.Map {
		m := coverage.New(field, pts, 4, 2)
		r := rng.New(3)
		for id := 0; id < 25; id++ {
			m.AddSensor(id, r.PointInRect(field))
		}
		return m
	}
	m := build()
	res := (core.VoronoiDECOR{Rc: 8}).Deploy(m, rng.New(4), core.Options{})
	return m, res, build
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, res, _ := runDeployment(t)
	var buf bytes.Buffer
	if err := Write(&buf, m, res); err != nil {
		t.Fatal(err)
	}
	tr, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Method != "voronoi-small" || tr.Header.K != 2 || tr.Header.NumPoints != 300 {
		t.Errorf("header = %+v", tr.Header)
	}
	if tr.Header.Initial != 25 {
		t.Errorf("initial = %d", tr.Header.Initial)
	}
	if len(tr.Placements) != res.NumPlaced() {
		t.Fatalf("placements = %d, want %d", len(tr.Placements), res.NumPlaced())
	}
	for i, rec := range tr.Placements {
		if rec.ID != res.Placed[i].ID || rec.X != res.Placed[i].Pos.X {
			t.Fatalf("placement %d mismatch", i)
		}
	}
	if tr.Footer.CoverageK != 1 {
		t.Errorf("footer coverage = %v", tr.Footer.CoverageK)
	}
	if tr.Footer.Messages != res.Messages {
		t.Errorf("footer messages = %d", tr.Footer.Messages)
	}
}

func TestReplayReachesRecordedCoverage(t *testing.T) {
	m, res, build := runDeployment(t)
	var buf bytes.Buffer
	if err := Write(&buf, m, res); err != nil {
		t.Fatal(err)
	}
	tr, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := build()
	cov, err := replay(fresh, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 1 {
		t.Errorf("replayed coverage = %v, want 1", cov)
	}
	if fresh.NumSensors() != m.NumSensors() {
		t.Errorf("replayed sensors = %d, want %d", fresh.NumSensors(), m.NumSensors())
	}
}

// A chaos run — event-driven grid deployment under delay, duplication,
// burst loss, a leader crash, and a partition — must serialize through
// the trace format and replay onto a fresh map with IDENTICAL final
// per-point coverage counts, not merely the same coverage fraction. The
// trace is the post-mortem artifact for failing chaos seeds, so it has
// to reproduce the world exactly.
func TestChaosRunTraceReplaysIdenticalCoverage(t *testing.T) {
	field := geom.Square(30)
	pts := lowdisc.Halton{}.Points(120, field)
	build := func() *coverage.Map { return coverage.New(field, pts, 4, 2) }

	m := build()
	eng := sim.NewEngine(0.05)
	eng.SetLossRate(0.15, 5)
	eng.SetFaults(sim.FaultPlan{
		Seed:      5,
		DelayProb: 0.3, DelayMax: 1.5,
		DupProb: 0.2,
		Burst:   &sim.GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.7},
		Until:   25,
		Crashes: []sim.Crash{{Actor: protocol.LeaderActor(2), At: 3, RestartAt: 8}},
		Partitions: []sim.Partition{{
			From: 1, Until: 10,
			A: []int{protocol.LeaderActor(0)},
			B: []int{protocol.LeaderActor(4), protocol.LeaderActor(5)},
		}},
	})
	w := protocol.NewWorld(m, 5, eng, 1)
	seeds := protocol.RunDeployment(w)
	if !m.FullyCovered() {
		t.Fatal("chaos deployment did not converge")
	}

	res := core.Result{Method: "grid-small", Messages: w.MessagesSent, Seeded: seeds}
	for i, pl := range w.PlacementLog {
		res.Placed = append(res.Placed, core.Placement{ID: pl.NewID, Pos: pl.Pos, Round: i})
	}
	var buf bytes.Buffer
	if err := Write(&buf, m, res); err != nil {
		t.Fatal(err)
	}
	tr, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Initial != 0 {
		t.Errorf("chaos run logs every placement; header initial = %d", tr.Header.Initial)
	}

	fresh := build()
	cov, err := replay(fresh, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 1 {
		t.Errorf("replayed coverage = %v, want 1", cov)
	}
	if fresh.NumSensors() != m.NumSensors() {
		t.Fatalf("replayed sensors = %d, want %d", fresh.NumSensors(), m.NumSensors())
	}
	for i := 0; i < m.NumPoints(); i++ {
		if fresh.Count(i) != m.Count(i) {
			t.Fatalf("point %d: replayed count %d != live count %d", i, fresh.Count(i), m.Count(i))
		}
	}
}

func TestReplayRejectsMismatchedMap(t *testing.T) {
	m, res, _ := runDeployment(t)
	var buf bytes.Buffer
	if err := Write(&buf, m, res); err != nil {
		t.Fatal(err)
	}
	tr, _ := read(&buf)
	wrong := coverage.New(geom.Square(40), lowdisc.Halton{}.Points(100, geom.Square(40)), 4, 2)
	if _, err := replay(wrong, tr); err == nil {
		t.Error("mismatched map should be rejected")
	}
}

func TestReadRejectsMalformedTraces(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"no header":         `{"kind":"placement","seq":0,"id":1,"x":1,"y":2,"round":0}` + "\n",
		"unknown kind":      `{"kind":"mystery"}` + "\n",
		"missing footer":    `{"kind":"header","method":"x","k":1}` + "\n",
		"bad seq":           `{"kind":"header","method":"x","k":1}` + "\n" + `{"kind":"placement","seq":5}` + "\n",
		"double header":     `{"kind":"header"}` + "\n" + `{"kind":"header"}` + "\n",
		"footer count lies": `{"kind":"header"}` + "\n" + `{"kind":"footer","placed":3}` + "\n",
		"not json":          "hello\n",
	}
	for name, in := range cases {
		if _, err := read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadStopsAtFooter(t *testing.T) {
	// Trailing garbage after the footer is ignored (stream reuse).
	in := `{"kind":"header","method":"x","k":1}` + "\n" +
		`{"kind":"footer","placed":0}` + "\n" +
		"TRAILING GARBAGE"
	tr, err := read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if tr.Header.Method != "x" {
		t.Error("header lost")
	}
}

func TestObsRecordRoundTrip(t *testing.T) {
	m, res, _ := runDeployment(t)
	reg := obs.NewRegistry()
	reg.Counter("decor_sim_events_total").Add(42)
	reg.Gauge("decor_sim_queue_depth").Set(7)
	reg.Histogram("decor_core_round_seconds").Observe(0.01)
	snap := reg.Snapshot()

	var buf bytes.Buffer
	if err := Write(&buf, m, res); err != nil {
		t.Fatal(err)
	}
	if err := AppendObs(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if err := AppendObs(&buf, snap); err != nil { // multiple snapshots are fine
		t.Fatal(err)
	}
	tr, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Obs) != 2 {
		t.Fatalf("obs records = %d, want 2", len(tr.Obs))
	}
	got := tr.Obs[0].Obs
	if !reflect.DeepEqual(got, snap) {
		t.Errorf("obs snapshot round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
	if len(tr.Placements) != res.NumPlaced() {
		t.Errorf("placements lost alongside obs records")
	}
}

func TestObsRecordInBody(t *testing.T) {
	in := `{"kind":"header","method":"x","k":1}` + "\n" +
		`{"kind":"obs","obs":{"counters":{"c_total":3}}}` + "\n" +
		`{"kind":"footer","placed":0}` + "\n"
	tr, err := read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Obs) != 1 || tr.Obs[0].Obs.Counters["c_total"] != 3 {
		t.Errorf("obs = %+v", tr.Obs)
	}
}

func TestObsRecordBeforeHeaderRejected(t *testing.T) {
	in := `{"kind":"obs","obs":{}}` + "\n" + `{"kind":"header","k":1}` + "\n"
	if _, err := read(strings.NewReader(in)); err == nil {
		t.Error("obs before header should be rejected")
	}
}

// TestSeedFormatTraceStillParses pins backward compatibility: a trace in
// the exact pre-obs format (header, placements, footer, nothing else)
// must parse unchanged.
func TestSeedFormatTraceStillParses(t *testing.T) {
	in := `{"kind":"header","method":"voronoi-small","k":2,"rs":4,"field_w":40,"field_h":40,"num_points":300,"initial_sensors":25}` + "\n" +
		`{"kind":"placement","seq":0,"id":25,"x":1.5,"y":2.5,"round":0}` + "\n" +
		`{"kind":"placement","seq":1,"id":26,"x":3,"y":4,"round":1}` + "\n" +
		`{"kind":"footer","placed":2,"total_nodes":27,"redundant_nodes":0,"messages":9,"messages_per_cell":0.3,"rounds":2,"seeded":0,"coverage_k":1}` + "\n"
	tr, err := read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Placements) != 2 || tr.Footer.Messages != 9 || len(tr.Obs) != 0 {
		t.Errorf("seed-format trace parsed wrong: %+v", tr)
	}
}

// TestReplayNamesMismatchedField checks that each replay validation
// failure names the offending header field.
func TestReplayNamesMismatchedField(t *testing.T) {
	field := geom.Square(40)
	pts := lowdisc.Halton{}.Points(300, field)
	base := Header{Kind: KindHeader, K: 2, Rs: 4, FieldW: 40, FieldH: 40, NumPoints: 300}
	cases := []struct {
		name   string
		mutate func(*Header)
		want   string
	}{
		{"k", func(h *Header) { h.K = 3 }, "k="},
		{"points", func(h *Header) { h.NumPoints = 100 }, "num_points="},
		{"rs", func(h *Header) { h.Rs = 5 }, "rs="},
		{"field_w", func(h *Header) { h.FieldW = 50 }, "field_w="},
		{"field_h", func(h *Header) { h.FieldH = 50 }, "field_h="},
	}
	for _, tc := range cases {
		h := base
		tc.mutate(&h)
		m := coverage.New(field, pts, 4, 2)
		_, err := replay(m, parsedTrace{Header: h})
		if err == nil {
			t.Errorf("%s: mismatch not rejected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name field %q", tc.name, err, tc.want)
		}
	}
	// A fully matching header replays fine.
	m := coverage.New(field, pts, 4, 2)
	if _, err := replay(m, parsedTrace{Header: base}); err != nil {
		t.Errorf("matching header rejected: %v", err)
	}
}

// replay applies the trace's placements onto a coverage map built by the
// caller to match the header (same field, points, rs, k, and initial
// sensors), returning the map's coverage at the end. Every header
// parameter the map can express is validated; the error names the first
// mismatched field.
func replay(m *coverage.Map, t parsedTrace) (float64, error) {
	h := t.Header
	switch {
	case m.K() != h.K:
		return 0, fmt.Errorf("trace: map k=%d does not match header k=%d", m.K(), h.K)
	case m.NumPoints() != h.NumPoints:
		return 0, fmt.Errorf("trace: map has %d points, header declares num_points=%d", m.NumPoints(), h.NumPoints)
	case m.Rs() != h.Rs:
		return 0, fmt.Errorf("trace: map rs=%g does not match header rs=%g", m.Rs(), h.Rs)
	case m.Field().W() != h.FieldW:
		return 0, fmt.Errorf("trace: map field width %g does not match header field_w=%g", m.Field().W(), h.FieldW)
	case m.Field().H() != h.FieldH:
		return 0, fmt.Errorf("trace: map field height %g does not match header field_h=%g", m.Field().H(), h.FieldH)
	}
	for _, rec := range t.Placements {
		m.AddSensor(rec.ID, geom.Point{X: rec.X, Y: rec.Y})
	}
	return m.CoverageFrac(m.K()), nil
}

// parsedTrace is a run record as read parses it.
type parsedTrace struct {
	Header     Header
	Placements []PlacementRec
	Footer     Footer
	// Obs holds any instrumentation snapshots found in the trace, in file
	// order (empty for seed-format traces).
	Obs []ObsRec
}

// read is the tests' parser of a trace written by Write. It validates
// record ordering and placement sequence numbers.
func read(r io.Reader) (parsedTrace, error) {
	var t parsedTrace
	dec := json.NewDecoder(r)
	// Header.
	var probe struct {
		Kind string `json:"kind"`
	}
	raw := json.RawMessage{}
	state := 0 // 0=expect header, 1=placements/footer, 2=after footer
	for {
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if state == 2 {
				break // trailing non-trace data after the footer (stream reuse)
			}
			return t, err
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			if state == 2 {
				break
			}
			return t, err
		}
		if state == 2 && probe.Kind != KindObs {
			// Past the footer only appended obs records belong to this
			// trace; anything else is the next stream's data.
			break
		}
		switch probe.Kind {
		case KindHeader:
			if state != 0 {
				return t, errors.New("trace: duplicate header")
			}
			if err := json.Unmarshal(raw, &t.Header); err != nil {
				return t, err
			}
			state = 1
		case KindPlacement:
			if state != 1 {
				return t, errors.New("trace: placement outside body")
			}
			var rec PlacementRec
			if err := json.Unmarshal(raw, &rec); err != nil {
				return t, err
			}
			if rec.Seq != len(t.Placements) {
				return t, fmt.Errorf("trace: placement seq %d out of order", rec.Seq)
			}
			t.Placements = append(t.Placements, rec)
		case KindFooter:
			if state == 0 {
				return t, errors.New("trace: footer without header")
			}
			if err := json.Unmarshal(raw, &t.Footer); err != nil {
				return t, err
			}
			state = 2
		case KindObs:
			if state == 0 {
				return t, errors.New("trace: obs record before header")
			}
			var rec ObsRec
			if err := json.Unmarshal(raw, &rec); err != nil {
				return t, err
			}
			t.Obs = append(t.Obs, rec)
		default:
			return t, fmt.Errorf("trace: unknown record kind %q", probe.Kind)
		}
	}
	if state != 2 {
		return t, errors.New("trace: truncated (missing footer)")
	}
	if t.Footer.Placed != len(t.Placements) {
		return t, fmt.Errorf("trace: footer claims %d placements, found %d",
			t.Footer.Placed, len(t.Placements))
	}
	return t, nil
}
