package service

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNormalizeFillsDefaults(t *testing.T) {
	pr, err := PlanRequest{FieldSide: 100, K: 3, Rs: 4}.normalize(DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Rc != 8 {
		t.Errorf("Rc = %g, want 2·Rs", pr.Rc)
	}
	if pr.NumPoints != 2000 || pr.Generator != "halton" || pr.Method != "voronoi-big" {
		t.Errorf("defaults = %d %q %q", pr.NumPoints, pr.Generator, pr.Method)
	}
}

func TestNormalizeRejectsNonFinite(t *testing.T) {
	lim := DefaultLimits()
	bad := []PlanRequest{
		{FieldSide: math.NaN(), K: 1, Rs: 4},
		{FieldSide: math.Inf(1), K: 1, Rs: 4},
		{FieldSide: 50, K: 1, Rs: math.NaN()},
		{FieldSide: 50, K: 1, Rs: 4, Rc: math.Inf(1)},
		{FieldSide: 50, K: 1, Rs: 4, Sensors: []SensorSpec{{X: math.NaN(), Y: 1}}},
		{FieldSide: 50, K: 1, Rs: 4, Sensors: []SensorSpec{{X: 1, Y: math.Inf(-1)}}},
	}
	for i, pr := range bad {
		if _, err := pr.normalize(lim); err == nil {
			t.Errorf("request %d with non-finite input accepted", i)
		}
	}
}

func TestNormalizeAssignsSequentialIDs(t *testing.T) {
	pr, err := PlanRequest{FieldSide: 50, K: 1, Rs: 4,
		Sensors: []SensorSpec{{X: 1, Y: 1}, {X: 2, Y: 2}}}.normalize(DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range pr.Sensors {
		if s.ID == nil || *s.ID != i {
			t.Errorf("sensor %d id = %v, want %d", i, s.ID, i)
		}
	}
}

// TestNormalizeSizeLimits walks the edges of the three size caps that
// are constants rather than Limits: explicit sensor IDs up to 2^53-1,
// at most maxGridCells cells in each index grid and in a grid method's
// partition, and at most maxAdjacencyEntries point-adjacency entries.
func TestNormalizeSizeLimits(t *testing.T) {
	lim := DefaultLimits()
	withID := func(id int) PlanRequest {
		return PlanRequest{FieldSide: 50, K: 1, Rs: 4, Scatter: 3,
			Sensors: []SensorSpec{{ID: intPtr(id), X: 1, Y: 1}}}
	}
	field := func(side, rs float64, method string) PlanRequest {
		return PlanRequest{FieldSide: side, K: 1, Rs: rs, Method: method}
	}
	points := func(n int, rs float64) PlanRequest {
		return PlanRequest{FieldSide: 100, K: 1, Rs: rs, NumPoints: n}
	}
	cases := []struct {
		name string
		pr   PlanRequest
		ok   bool
	}{
		{"id 2^53-1", withID(1<<53 - 1), true},
		{"id 2^53", withID(1 << 53), false},
		{"index 512x512", field(2044, 4, "voronoi-big"), true},
		{"index 513x513", field(2044.5, 4, "voronoi-big"), false},
		{"grid-small 512x512", field(2560, 100, "grid-small"), true},
		{"grid-small 513x513", field(2560.5, 100, "grid-small"), false},
		{"grid-big 512x512", field(5120, 100, "grid-big"), true},
		{"grid-big 513x513", field(5120.5, 100, "grid-big"), false},
		{"centralized has no cell grid", field(5120.5, 100, "centralized"), true},
		{"side/rs overflows", field(math.MaxFloat64, 1e-300, "random"), false},
		// n·min(n, n·π·rs²/side²) against 2^24: the disk term at 20000
		// points (4e4·π·rs² entries), then the whole-field term n².
		{"adjacency 20000 pts rs 11.55", points(20000, 11.55), true},
		{"adjacency 20000 pts rs 11.56", points(20000, 11.56), false},
		{"adjacency 4096² entries", points(4096, 100), true},
		{"adjacency 4097² entries", points(4097, 100), false},
		{"adjacency 4097 pts small disk", points(4097, 4), true},
	}
	for _, tc := range cases {
		_, err := tc.pr.normalize(lim)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted %v", tc.name, err, tc.ok)
		}
	}
}

func TestTimeoutResolution(t *testing.T) {
	lim := Limits{DefaultTimeout: time.Second, MaxTimeout: 2 * time.Second}.normalized()
	if d := (PlanRequest{}).timeout(lim); d != time.Second {
		t.Errorf("default timeout = %v", d)
	}
	if d := (PlanRequest{TimeoutMS: 500}).timeout(lim); d != 500*time.Millisecond {
		t.Errorf("explicit timeout = %v", d)
	}
	if d := (PlanRequest{TimeoutMS: 60000}).timeout(lim); d != 2*time.Second {
		t.Errorf("timeout not clamped: %v", d)
	}
}

// TestDecodeJSONStrictness: the parser and its encoding/json oracle
// both refuse a trailing value and an unknown key, and both allow
// trailing whitespace.
func TestDecodeJSONStrictness(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"field_side":50} {"k":1}`: false,
		`{"nope":1}`:                false,
		`{"field_side":50}   `:      true,
	} {
		var pr, std PlanRequest
		if err := decodeRequest([]byte(body), &pr, nil, nil); (err == nil) != ok {
			t.Errorf("%q: parser err %v, want accepted %v", body, err, ok)
		}
		if err := decodeJSON(strings.NewReader(body), &std); (err == nil) != ok {
			t.Errorf("%q: encoding/json err %v, want accepted %v", body, err, ok)
		}
	}
}
