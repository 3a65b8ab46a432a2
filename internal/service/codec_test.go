package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------
// Encoder parity: every byte the hand-rolled codec emits must match
// encoding/json exactly — the cache and X-Decor-Cache identity contract.
// ---------------------------------------------------------------------

// TestAppendErrorBodyParity pins writeError's rendered body against the
// json.Marshal construction it replaced, across the escaping surface
// (HTML characters, control bytes, invalid UTF-8, U+2028/U+2029).
func TestAppendErrorBodyParity(t *testing.T) {
	msgs := []string{
		"",
		"use POST",
		"use GET",
		"deadline exceeded while planning",
		`unknown generator "hélton"`,
		"tags <b>bold</b> & \"quoted\"",
		"newline\nand\ttab and control \x01",
		"invalid utf8 \xff\xfe trailing",
		"line separators \u2028 \u2029",
		"emoji 🎉 and 世界",
	}
	for _, msg := range msgs {
		want, err := json.Marshal(struct {
			Error string `json:"error"`
		}{Error: msg})
		if err != nil {
			t.Fatalf("marshal %q: %v", msg, err)
		}
		want = append(want, '\n')
		got := appendErrorBody(nil, msg)
		if !bytes.Equal(got, want) {
			t.Errorf("error body for %q:\n got %q\nwant %q", msg, got, want)
		}
	}
	// The preformatted static bodies must equal the rendered form.
	if got := appendErrorBody(nil, "use POST"); !bytes.Equal(errBodyUsePost, got) {
		t.Errorf("static use-POST body %q != rendered %q", errBodyUsePost, got)
	}
	if got := appendErrorBody(nil, "use GET"); !bytes.Equal(errBodyUseGet, got) {
		t.Errorf("static use-GET body %q != rendered %q", errBodyUseGet, got)
	}
}

func respParity(t *testing.T, resp *PlanResponse) {
	t.Helper()
	want, wantErr := json.Marshal(resp)
	got, gotErr := appendPlanResponse(nil, resp)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("response %+v: appendPlanResponse err=%v, json.Marshal err=%v", resp, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Errorf("response %+v:\n got %s\nwant %s", resp, got, want)
	}
}

func TestAppendPlanResponseParity(t *testing.T) {
	cases := []*PlanResponse{
		{},
		{Method: "voronoi-big", K: 3, Placed: 12, TotalSensors: 112, Messages: 240,
			MessagesPerCell: 1.21875, Rounds: 4, Seeded: 100,
			Placements: []PointSpec{{X: 1.5, Y: 2.25}, {X: 0, Y: 97.3}},
			CoverageK:  0.998, Coverage1: 1, Covered: true},
		{Method: "centralized", Failed: 3, Placements: []PointSpec{}},
		{Method: "grid-small", Failed: 0, Placements: nil, CoverageK: 1e-7, Coverage1: 1e21},
		{Method: "esc<&>\"", Placements: []PointSpec{{X: math.MaxFloat64, Y: 5e-324}},
			MessagesPerCell: 9.999999e-7},
		{MessagesPerCell: math.NaN(), Placements: []PointSpec{}},
		{CoverageK: math.Inf(1), Placements: []PointSpec{}},
		{Coverage1: math.Inf(-1), Placements: []PointSpec{}},
		{Placements: []PointSpec{{X: math.NaN()}}},
		{K: math.MaxInt, Placed: math.MinInt, Messages: -42, Rounds: 7},
	}
	for _, resp := range cases {
		respParity(t, resp)
	}
}

// TestRequestKeyIdentity pins what the cache key identifies: two
// normalized requests share a key exactly when they came to the same
// endpoint and their json.Marshal forms, timeout zeroed, are equal. The
// corpus holds the pairs where the two could part ways: signed zeros,
// neighbouring floats, reordered sensors, implicit vs explicit IDs,
// defaulted vs explicit fields, and nil vs empty vs non-empty failed.
func TestRequestKeyIdentity(t *testing.T) {
	lim := DefaultLimits()
	base := PlanRequest{FieldSide: 50, K: 2, Rs: 4, Seed: 7}
	plan := func(mut func(*PlanRequest)) PlanRequest {
		pr := base
		mut(&pr)
		return pr
	}
	at := func(x, y float64) []SensorSpec { return []SensorSpec{{X: x, Y: y}} }
	scattered := plan(func(p *PlanRequest) { p.Scatter = 5 })
	plans := map[string]PlanRequest{
		"defaults": base,
		"explicit defaults": plan(func(p *PlanRequest) {
			p.Rc, p.NumPoints, p.Generator, p.Method = 8, 2000, "halton", "voronoi-big"
		}),
		"timeout":       plan(func(p *PlanRequest) { p.TimeoutMS = 900 }),
		"rc 10":         plan(func(p *PlanRequest) { p.Rc = 10 }),
		"sobol":         plan(func(p *PlanRequest) { p.Generator = "sobol" }),
		"centralized":   plan(func(p *PlanRequest) { p.Method = "centralized" }),
		"seed 0":        plan(func(p *PlanRequest) { p.Seed = 0 }),
		"seed max":      plan(func(p *PlanRequest) { p.Seed = math.MaxUint64 }),
		"empty sensors": plan(func(p *PlanRequest) { p.Sensors = []SensorSpec{} }),
		"x=0":           plan(func(p *PlanRequest) { p.Sensors = at(0, 1) }),
		"x=-0":          plan(func(p *PlanRequest) { p.Sensors = at(math.Copysign(0, -1), 1) }),
		"x=1":           plan(func(p *PlanRequest) { p.Sensors = at(1, 1) }),
		"x=1+ulp":       plan(func(p *PlanRequest) { p.Sensors = at(math.Nextafter(1, 2), 1) }),
		"id 0": plan(func(p *PlanRequest) {
			p.Sensors = []SensorSpec{{ID: intPtr(0), X: 1, Y: 1}}
		}),
		"ids 3,4": plan(func(p *PlanRequest) {
			p.Sensors = []SensorSpec{{ID: intPtr(3), X: 1, Y: 2}, {ID: intPtr(4), X: 3, Y: 4}}
		}),
		"ids 4,3": plan(func(p *PlanRequest) {
			p.Sensors = []SensorSpec{{ID: intPtr(4), X: 3, Y: 4}, {ID: intPtr(3), X: 1, Y: 2}}
		}),
		"scatter 5": scattered,
	}
	repairs := map[string]RepairRequest{
		"failed absent": {PlanRequest: scattered},
		"failed []":     {PlanRequest: scattered, Failed: []int{}},
		"failed [0]":    {PlanRequest: scattered, Failed: []int{0}},
		"failed [0,1]":  {PlanRequest: scattered, Failed: []int{0, 1}},
		"failed [1,0]":  {PlanRequest: scattered, Failed: []int{1, 0}},
		"failed [0] timeout": {PlanRequest: plan(func(p *PlanRequest) {
			p.Scatter, p.TimeoutMS = 5, 750
		}), Failed: []int{0}},
		"id 0 failed absent": {PlanRequest: plans["id 0"]},
		"x=1 failed absent":  {PlanRequest: plans["x=1"]},
	}

	type keyed struct {
		key  reqKey
		form string // endpoint + json.Marshal, timeout zeroed
	}
	cases := map[string]keyed{}
	marshal := func(endpoint string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return endpoint + "\x00" + string(b)
	}
	for name, pr := range plans {
		norm, err := pr.normalize(lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		timeout := norm.TimeoutMS
		k := norm.key()
		if norm.TimeoutMS != timeout {
			t.Errorf("%s: key() changed TimeoutMS to %d", name, norm.TimeoutMS)
		}
		norm.TimeoutMS = 0
		cases["plan "+name] = keyed{k, marshal("plan", norm)}
	}
	for name, rr := range repairs {
		norm, err := rr.normalize(lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		timeout := norm.TimeoutMS
		k := norm.key()
		if norm.TimeoutMS != timeout {
			t.Errorf("%s: key() changed TimeoutMS to %d", name, norm.TimeoutMS)
		}
		norm.TimeoutMS = 0
		cases["repair "+name] = keyed{k, marshal("repair", norm)}
	}

	for a, ka := range cases {
		for b, kb := range cases {
			if a >= b {
				continue
			}
			if (ka.key == kb.key) != (ka.form == kb.form) {
				t.Errorf("%s vs %s: keys equal %v, forms equal %v\n %s\n %s",
					a, b, ka.key == kb.key, ka.form == kb.form, ka.form, kb.form)
			}
			if strings.HasPrefix(a, "plan ") != strings.HasPrefix(b, "plan ") && ka.key == kb.key {
				t.Errorf("plan and repair keys collide: %s vs %s", a, b)
			}
		}
	}

	// The corpus must exercise both sides of the equivalence.
	for _, pair := range [][2]string{
		{"plan defaults", "plan explicit defaults"},
		{"plan defaults", "plan timeout"},
		{"plan defaults", "plan empty sensors"},
		{"plan x=1", "plan id 0"},
		{"repair failed [0]", "repair failed [0] timeout"},
		{"repair id 0 failed absent", "repair x=1 failed absent"},
	} {
		if cases[pair[0]].key != cases[pair[1]].key {
			t.Errorf("%s and %s must share a key", pair[0], pair[1])
		}
	}
	for _, pair := range [][2]string{
		{"plan x=0", "plan x=-0"},
		{"plan x=1", "plan x=1+ulp"},
		{"plan ids 3,4", "plan ids 4,3"},
		{"plan defaults", "plan rc 10"},
		{"plan seed 0", "plan seed max"},
		{"repair failed absent", "repair failed []"},
		{"repair failed []", "repair failed [0]"},
		{"repair failed [0,1]", "repair failed [1,0]"},
		{"plan scatter 5", "repair failed absent"},
	} {
		if cases[pair[0]].key == cases[pair[1]].key {
			t.Errorf("%s and %s must not share a key", pair[0], pair[1])
		}
	}
}

func intPtr(i int) *int { return &i }

// ---------------------------------------------------------------------
// Decoder parity: the fast-path-or-bail decoders must agree with the
// pure stdlib path on acceptance, decoded value, and error text.
// ---------------------------------------------------------------------

// decodeBodies is the differential corpus for the request decoders:
// clean fast-grammar bodies, every bail trigger (escapes, case-folded
// keys, nulls, floats in int fields, unknown fields), and malformed
// tails.
var decodeBodies = []string{
	``,
	`{}`,
	`   {  }  `,
	`{"field_side":100,"k":3,"rs":4}`,
	`{"field_side":100.5,"k":3,"rs":4,"rc":8.25,"num_points":2000,"generator":"halton","seed":42,"scatter":200,"method":"voronoi-big","timeout_ms":900}`,
	`{"field_side":1e2,"k":3,"rs":4e-1}`,
	`{"field_side":100,"k":3,"rs":4,"sensors":[]}`,
	`{"field_side":100,"k":3,"rs":4,"sensors":[{}]}`,
	`{"field_side":100,"k":3,"rs":4,"sensors":[{"id":1,"x":5,"y":6},{"x":7,"y":8}]}`,
	`{"field_side":100,"k":3,"rs":4,"sensors":null}`,
	`{"k":1,"k":2}`,
	// A repeated "sensors" key: encoding/json decodes the second array
	// into the first array's elements ({id:1 x:5 y:2}), so the fast path
	// bails on every repeated key.
	`{"field_side":50,"k":1,"rs":4,"num_points":200,"sensors":[{"id":1,"x":1,"y":2}],"sensors":[{"x":5}],"method":"centralized"}`,
	`{"failed":[1,2],"failed":[3]}`,
	`{"field_id":"a","field_id":"b"}`,
	`{"K":1}`,
	`{"generator":"hal\u0074on"}`,
	`{"method":"custom-method"}`,
	`{"field_side":"100"}`,
	`{"field_side":1e999}`,
	`{"k":5.5}`,
	`{"k":1e3}`,
	`{"k":9223372036854775808}`,
	`{"seed":-1}`,
	`{"seed":18446744073709551615}`,
	`{"unknown_field":1}`,
	`{"field_side":100,"k":3,"rs":4} `,
	`{"field_side":100,"k":3,"rs":4}{"k":1}`,
	`{"field_side":100,"k":3,"rs":4} trailing`,
	`{"field_side":100,`,
	`[1,2,3]`,
	`null`,
	`true`,
	`{"timeout_ms":-5}`,
	`{"field_side": 100 , "k" : 3 }`,
	`{"failed":[1,2,3]}`,
	`{"failed":[]}`,
	`{"failed":null}`,
	`{"failed":[1,2,"x"]}`,
	`{"failed":[01]}`,
	`{"field_id":"f-1","field_side":100,"k":1,"rs":4}`,
	`{"field_id":"esc\"aped"}`,
	`{"field_id":""}`,
	`{"field_id":"héllo"}`,
	"{\"field_id\":\"tab\there\"}",
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return errTextStatus(ae)
	}
	return err.Error()
}

func errTextStatus(ae *apiError) string {
	return ae.msg + " (status " + itoa(ae.status) + ")"
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestDecodePlanRequestParity(t *testing.T) {
	for _, body := range decodeBodies {
		var fast, slow PlanRequest
		fastErr := decodePlanRequest([]byte(body), &fast)
		slowErr := decodeJSON(strings.NewReader(body), &slow)
		if errText(fastErr) != errText(slowErr) {
			t.Errorf("plan %q: fast err %q, stdlib err %q", body, errText(fastErr), errText(slowErr))
			continue
		}
		if fastErr == nil && !reflect.DeepEqual(fast, slow) {
			t.Errorf("plan %q:\n fast %+v\n slow %+v", body, fast, slow)
		}
	}
}

func TestDecodeRepairRequestParity(t *testing.T) {
	for _, body := range decodeBodies {
		var fast, slow RepairRequest
		fastErr := decodeRepairRequest([]byte(body), &fast)
		slowErr := decodeJSON(strings.NewReader(body), &slow)
		if errText(fastErr) != errText(slowErr) {
			t.Errorf("repair %q: fast err %q, stdlib err %q", body, errText(fastErr), errText(slowErr))
			continue
		}
		if fastErr == nil && !reflect.DeepEqual(fast, slow) {
			t.Errorf("repair %q:\n fast %+v\n slow %+v", body, fast, slow)
		}
	}
}

func TestDecodeFieldRequestParity(t *testing.T) {
	for _, body := range decodeBodies {
		var fast, slow FieldRequest
		fastErr := decodeFieldRequest([]byte(body), &fast)
		slowErr := decodeJSON(strings.NewReader(body), &slow)
		if errText(fastErr) != errText(slowErr) {
			t.Errorf("field %q: fast err %q, stdlib err %q", body, errText(fastErr), errText(slowErr))
			continue
		}
		if fastErr == nil && !reflect.DeepEqual(fast, slow) {
			t.Errorf("field %q:\n fast %+v\n slow %+v", body, fast, slow)
		}
	}
}

// ---------------------------------------------------------------------
// Event-stream parity: the pooled scanner against the json.Decoder loop
// the handler used to run.
// ---------------------------------------------------------------------

// stdlibEventSeq reproduces the old handler's decode loop outcome: the
// sequence of failed-ID lists, terminated by "" (clean EOF) or an error
// string.
func stdlibEventSeq(body string) ([][]int, string) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var seq [][]int
	for {
		var ev EventRequest
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return seq, ""
			}
			return seq, err.Error()
		}
		seq = append(seq, append([]int(nil), ev.Failed...))
	}
}

func scannerEventSeq(body string) ([][]int, string) {
	sc := newEventScanner(strings.NewReader(body))
	defer sc.close()
	var seq [][]int
	for {
		failed, err := sc.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return seq, ""
			}
			return seq, err.Error()
		}
		seq = append(seq, append([]int(nil), failed...))
	}
}

var eventStreams = []string{
	``,
	`   `,
	`{"failed":[1]}`,
	`{"failed":[1]}{"failed":[2,3]}`,
	"{\"failed\":[1]}\n{\"failed\":[2]}\n",
	`{"failed":[]}{"failed":null}{}`,
	`{"failed":[1],"failed":[2]}`,
	`{"failed":[1]} garbage`,
	`{"failed":[1]}{"failed":`,
	`{"failed":[1.5]}`,
	`{"failed":[-3]}`,
	`{"failed":"x"}`,
	`{"unknown":[1]}`,
	`{"failed":[1]}[2]`,
	`[{"failed":[1]}]`,
	`{"failed":[1]}{"failed":[2]} {"failed":[3]}`,
	`{"fail\u0065d":[9]}`,
	`{"failed":[ 1 , 2 ]}`,
	`{ "failed" : [1] }{"failed":[2]}`,
	`{"failed":[1]}x{"failed":[2]}`,
	`null {"failed":[1]}`,
	`{"nested":{"failed":[1]}}`,
	"{\"failed\":[1]}\r\n\t {\"failed\":[2]}",
}

func TestEventScannerParity(t *testing.T) {
	for _, body := range eventStreams {
		wantSeq, wantErr := stdlibEventSeq(body)
		gotSeq, gotErr := scannerEventSeq(body)
		if gotErr != wantErr {
			t.Errorf("stream %q: scanner err %q, stdlib err %q", body, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(gotSeq, wantSeq) {
			t.Errorf("stream %q:\n scanner %v\n stdlib  %v", body, gotSeq, wantSeq)
		}
	}
}

// TestEventScannerSmallReads re-runs the parity corpus through a reader
// that yields one byte at a time, exercising every fill/refill boundary
// in the object lexer.
func TestEventScannerSmallReads(t *testing.T) {
	for _, body := range eventStreams {
		wantSeq, wantErr := stdlibEventSeq(body)
		sc := newEventScanner(iotest(body))
		var gotSeq [][]int
		gotErr := ""
		for {
			failed, err := sc.next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					gotErr = err.Error()
				}
				break
			}
			gotSeq = append(gotSeq, append([]int(nil), failed...))
		}
		sc.close()
		if gotErr != wantErr || !reflect.DeepEqual(gotSeq, wantSeq) {
			t.Errorf("stream %q (1-byte reads):\n scanner %v err %q\n stdlib  %v err %q",
				body, gotSeq, gotErr, wantSeq, wantErr)
		}
	}
}

// iotest returns a reader delivering s one byte per Read call.
func iotest(s string) io.Reader { return &oneByteReader{s: s} }

type oneByteReader struct{ s string }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = r.s[0]
	r.s = r.s[1:]
	return 1, nil
}

// ---------------------------------------------------------------------
// Fuzzers (ISSUE 10 satellite: differential parity with seed corpus)
// ---------------------------------------------------------------------

// FuzzCodecParity drives randomized responses and error messages through
// both encoders: bytes must match json.Marshal exactly, and non-finite
// floats must be rejected on both sides.
func FuzzCodecParity(f *testing.F) {
	f.Add("voronoi-big", 3, 12, 240, 1.25, 0.5, 0, 0.998, 1.0, true, 2, "plan failed")
	f.Add("", 0, 0, 0, 0.0, 0.0, 0, 0.0, 0.0, false, -1, "")
	f.Add("esc<&>\"\u2028", math.MaxInt, math.MinInt, -1, math.Inf(1), 1e21, 5,
		9.999999e-7, math.MaxFloat64, true, 0, "err <&> \xff")
	f.Fuzz(func(t *testing.T, method string, k, placed, messages int,
		mpc, px float64, nPlace int, covK, cov1 float64, covered bool,
		failed int, errMsg string) {
		if nPlace < -1 || nPlace > 32 {
			return
		}
		resp := &PlanResponse{
			Method: method, K: k, Placed: placed, TotalSensors: placed + 1,
			Messages: messages, MessagesPerCell: mpc, Rounds: 2, Seeded: 1,
			Failed: failed, CoverageK: covK, Coverage1: cov1, Covered: covered,
		}
		if nPlace >= 0 {
			resp.Placements = []PointSpec{}
			for i := 0; i < nPlace; i++ {
				resp.Placements = append(resp.Placements, PointSpec{X: px + float64(i), Y: px * float64(i)})
			}
		}
		respParity(t, resp)

		want, _ := json.Marshal(struct {
			Error string `json:"error"`
		}{Error: errMsg})
		if got := appendErrorBody(nil, errMsg); !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("error body %q:\n got %q\nwant %q", errMsg, got, append(want, '\n'))
		}
	})
}

// FuzzRequestDecodeParity is the decode half of the differential fuzz:
// arbitrary bytes through the fast-or-fallback decoders and the pure
// stdlib path must agree on outcome, value, and error text.
func FuzzRequestDecodeParity(f *testing.F) {
	for _, body := range decodeBodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var fast, slow PlanRequest
		fastErr := decodePlanRequest([]byte(body), &fast)
		slowErr := decodeJSON(strings.NewReader(body), &slow)
		if errText(fastErr) != errText(slowErr) {
			t.Fatalf("plan %q: fast err %q, stdlib err %q", body, errText(fastErr), errText(slowErr))
		}
		if fastErr == nil && !reflect.DeepEqual(fast, slow) {
			t.Fatalf("plan %q:\n fast %+v\n slow %+v", body, fast, slow)
		}
		var fastRR, slowRR RepairRequest
		fastRRErr := decodeRepairRequest([]byte(body), &fastRR)
		slowRRErr := decodeJSON(strings.NewReader(body), &slowRR)
		if errText(fastRRErr) != errText(slowRRErr) {
			t.Fatalf("repair %q: fast err %q, stdlib err %q", body, errText(fastRRErr), errText(slowRRErr))
		}
		if fastRRErr == nil && !reflect.DeepEqual(fastRR, slowRR) {
			t.Fatalf("repair %q:\n fast %+v\n slow %+v", body, fastRR, slowRR)
		}
	})
}

// FuzzEventStreamParity fuzzes the NDJSON scanner against the stdlib
// decode loop, in both one-shot and one-byte-read framing.
func FuzzEventStreamParity(f *testing.F) {
	for _, s := range eventStreams {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		wantSeq, wantErr := stdlibEventSeq(body)
		gotSeq, gotErr := scannerEventSeq(body)
		if gotErr != wantErr || !reflect.DeepEqual(gotSeq, wantSeq) {
			t.Fatalf("stream %q:\n scanner %v err %q\n stdlib  %v err %q",
				body, gotSeq, gotErr, wantSeq, wantErr)
		}
	})
}
