package session

import (
	"encoding/json"
	"math"
	"testing"
)

func deltaParity(t *testing.T, d *Delta) {
	t.Helper()
	want, wantErr := json.Marshal(d)
	got, gotErr := d.AppendJSON(nil)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("delta %+v: AppendJSON err=%v, json.Marshal err=%v", d, gotErr, wantErr)
	}
	if wantErr == nil && string(got) != string(want) {
		t.Errorf("delta %+v:\n got %s\nwant %s", d, got, want)
	}
}

func TestDeltaAppendJSONParity(t *testing.T) {
	cases := []*Delta{
		{},
		{FieldID: "f1", Seq: 0, Method: "voronoi-big", Placements: []Point{}},
		{FieldID: "f-2", Seq: 7, Method: "centralized",
			Failed: []int{3, 1, 2}, Placed: 2,
			Placements:   []Point{{X: 1.5, Y: 2.25}, {X: 0, Y: -3.125}},
			TotalSensors: 41, Messages: 120, Rounds: 3,
			CoverageK: 0.987654321, Covered: false},
		{FieldID: `needs "escaping" <&> ` + "\n\t", Method: "m\x00ethod",
			Placements: []Point{{X: 1e-7, Y: 1e21}}, CoverageK: 1},
		{FieldID: "nilvszero", Failed: []int{}, Placements: nil, CoverageK: 1, Covered: true},
		{FieldID: "maxima", Seq: math.MaxUint64, Placed: math.MaxInt,
			TotalSensors: math.MinInt, Messages: -1, Rounds: math.MaxInt32,
			Placements: []Point{{X: math.MaxFloat64, Y: 5e-324}}},
		{FieldID: "badfloat", CoverageK: math.NaN(), Placements: []Point{}},
		{FieldID: "badpoint", Placements: []Point{{X: math.Inf(1)}}},
		{FieldID: "utf8 héllo 世界 \xff", Method: "🎉"},
	}
	for _, d := range cases {
		deltaParity(t, d)
	}
}

func TestInfoAppendJSONParity(t *testing.T) {
	cases := []*Info{
		{},
		{FieldID: "f1", Tenant: "acme", Seq: 12, TotalSensors: 99,
			CoverageK: 0.75, Covered: true, Evicted: true},
		{FieldID: `q"uote`, Tenant: "<t&t>", CoverageK: 1e-8},
		{FieldID: "nan", CoverageK: math.NaN()},
	}
	for _, inf := range cases {
		want, wantErr := json.Marshal(inf)
		got, gotErr := inf.AppendJSON(nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("info %+v: AppendJSON err=%v, json.Marshal err=%v", inf, gotErr, wantErr)
		}
		if wantErr == nil && string(got) != string(want) {
			t.Errorf("info %+v:\n got %s\nwant %s", inf, got, want)
		}
	}
}

// FuzzDeltaCodecParity is the session half of the codec parity fuzz
// (ISSUE 10 satellite): randomized deltas through both encoders must
// produce identical bytes, and non-finite floats must be rejected by
// both sides, never emitted.
func FuzzDeltaCodecParity(f *testing.F) {
	f.Add("field-1", uint64(3), "voronoi-big", 2, 5, int64(7), 4, 2, 0.5, 1.25, -3.5, true, false)
	f.Add("", uint64(0), "", 0, 0, int64(0), 0, 0, 0.0, 0.0, 0.0, false, true)
	f.Add("esc\"<&>\n", uint64(math.MaxUint64), "m", 3, 1, int64(-9), -1, -2,
		math.Inf(1), 1e21, 9.999999e-7, true, true)
	f.Fuzz(func(t *testing.T, fieldID string, seq uint64, method string,
		nFailed, placed int, pbits int64, total, messages int,
		covK, px, py float64, covered, nilPlacements bool) {
		if nFailed < 0 || nFailed > 64 {
			return
		}
		d := &Delta{
			FieldID: fieldID, Seq: seq, Method: method,
			Placed: placed, TotalSensors: total, Messages: messages,
			Rounds: int(pbits % 1000), CoverageK: covK, Covered: covered,
		}
		for i := 0; i < nFailed; i++ {
			d.Failed = append(d.Failed, int(pbits)+i)
		}
		if !nilPlacements {
			d.Placements = []Point{}
			for i := 0; i < nFailed%5; i++ {
				d.Placements = append(d.Placements, Point{X: px + float64(i), Y: py * float64(i)})
			}
		}
		deltaParity(t, d)
	})
}
