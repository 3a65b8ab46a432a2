package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
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

func intPtr(i int) *int { return &i }

// ---------------------------------------------------------------------
// Decoder parity: the request parser against its oracle, encoding/json
// plus the two key rules it does not apply, on acceptance and decoded
// value. Error texts differ by design.
// ---------------------------------------------------------------------

// decodeJSON strictly decodes one JSON value from r into dst with
// encoding/json: unknown fields and trailing data are errors.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after request object")
	}
	return nil
}

// apiKeys holds every key the API spells: the json names of the
// request types' fields.
var apiKeys = func() map[string]bool {
	keys := map[string]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.Anonymous {
				walk(f.Type)
			} else {
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				keys[name] = true
			}
		}
	}
	for _, v := range []any{RepairRequest{}, FieldRequest{}, SensorSpec{}} {
		walk(reflect.TypeOf(v))
	}
	return keys
}()

// checkKeys applies the two key rules to a body encoding/json accepted:
// every key is spelled as the API spells it, and none repeats within
// its object. It walks the tokens, and stops at the first Token error
// (More would keep reporting true after one).
func checkKeys(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	var open []map[string]bool // the keys of each open object; nil for an array
	wantKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil
		}
		if k, ok := tok.(string); ok && wantKey {
			seen := open[len(open)-1]
			if !apiKeys[k] || seen[k] {
				return fmt.Errorf("key %q breaks the key rules", k)
			}
			seen[k], wantKey = true, false
			continue
		}
		switch tok {
		case json.Delim('{'):
			open, wantKey = append(open, map[string]bool{}), true
			continue
		case json.Delim('['):
			open, wantKey = append(open, nil), false
			continue
		case json.Delim('}'), json.Delim(']'):
			open = open[:len(open)-1]
		}
		// A value ended: inside an object, a key comes next.
		wantKey = len(open) > 0 && open[len(open)-1] != nil
	}
}

// oracleDecode is the reference reading of a request body.
func oracleDecode(body []byte, dst any) error {
	if err := decodeJSON(bytes.NewReader(body), dst); err != nil {
		return err
	}
	return checkKeys(body)
}

// decoders runs a body through the parser and the oracle into fresh
// values of each request type.
var decoders = map[string]func(body []byte) (got, want any, gotErr, wantErr error){
	"plan": func(body []byte) (any, any, error, error) {
		var got, want PlanRequest
		gotErr := decodeRequest(body, &got, nil, nil)
		return &got, &want, gotErr, oracleDecode(body, &want)
	},
	"repair": func(body []byte) (any, any, error, error) {
		var got, want RepairRequest
		gotErr := decodeRequest(body, &got.PlanRequest, &got.Failed, nil)
		return &got, &want, gotErr, oracleDecode(body, &want)
	},
	"field": func(body []byte) (any, any, error, error) {
		var got, want FieldRequest
		gotErr := decodeRequest(body, &got.PlanRequest, nil, &got.FieldID)
		return &got, &want, gotErr, oracleDecode(body, &want)
	},
}

// checkDecodeParity fails t unless the parser and the oracle both refuse
// body as the named request type, or both accept it with equal values.
func checkDecodeParity(t testing.TB, kind string, body []byte) {
	t.Helper()
	got, want, gotErr, wantErr := decoders[kind](body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%s %q: parser err %v, oracle err %v", kind, body, gotErr, wantErr)
	} else if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("%s %q:\n parser %+v\n oracle %+v", kind, body, got, want)
	}
}

// decodeBodies is the differential corpus for the request parser:
// ordinary bodies, string escapes, nulls in every place encoding/json
// reads one, type and range errors, the key rules, and malformed tails.
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
	`{"sensors":[null,{"id":null,"x":null,"y":2},null]}`,
	`{"sensors":[{"id":1.5null}]}`,
	`{"sensors":[{"id":1,"z":[1,2,3]}]}`,
	`{"sensors":[{"x":1,"x":2}]}`,
	`{"sensors":[{"X":1}]}`,
	`{"sensors":[{"x":"1"}]}`,
	`{"sensors":[1]}`,
	`{"sensors":{}}`,
	`{"k":1,"k":2}`,
	`{"k":null,"field_side":null,"generator":null,"seed":null,"method":null}`,
	`{"k":nul}`,
	`{"k":1null}`,
	// A repeated "sensors" key: encoding/json decodes the second array
	// into the first array's elements ({id:1 x:5 y:2}).
	`{"field_side":50,"k":1,"rs":4,"num_points":200,"sensors":[{"id":1,"x":1,"y":2}],"sensors":[{"x":5}],"method":"centralized"}`,
	`{"failed":[1,2],"failed":[3]}`,
	`{"field_id":"a","field_id":"b"}`,
	`{"K":1}`,
	`{"\u212a":1}`,
	`{"generator":"hal\u0074on"}`,
	`{"gener\u0061tor":"halton"}`,
	`{"method":"custom-method"}`,
	`{"field_side":"100"}`,
	`{"field_side":1e999}`,
	`{"field_side":true}`,
	`{"k":5.5}`,
	`{"k":1e3}`,
	`{"k":9223372036854775808}`,
	`{"seed":-1}`,
	`{"seed":18446744073709551615}`,
	`{"unknown_field":1}`,
	`{"unknown_field":{"k":[1,{"x":2}]}}`,
	`{"field_side":100,"k":3,"rs":4} `,
	`{"field_side":100,"k":3,"rs":4}{"k":1}`,
	`{"field_side":100,"k":3,"rs":4} trailing`,
	`{"field_side":100,`,
	`{"field_side":100,}`,
	`{"field_side" 100}`,
	`[1,2,3]`,
	`null`,
	` null `,
	`nullx`,
	`true`,
	`{"timeout_ms":-5}`,
	`{"field_side": 100 , "k" : 3 }`,
	`{"failed":[1,2,3]}`,
	`{"failed":[]}`,
	`{"failed":null}`,
	`{"failed":[1,null,3]}`,
	`{"failed":[1e400null]}`,
	`{"failed":[1,2,"x"]}`,
	`{"failed":[01]}`,
	`{"field_id":"f-1","field_side":100,"k":1,"rs":4}`,
	`{"field_id":"esc\"aped \\ \/ \b\f\n\r\t"}`,
	`{"field_id":"\ud83c\udf89 \ud83c \udf89 \ud83c\u0041 \u00e9"}`,
	`{"field_id":"bad \x escape"}`,
	`{"field_id":"short \u12"}`,
	`{"field_id":"bad \'quote"}`,
	`{"field_id":""}`,
	`{"field_id":null}`,
	`{"field_id":"héllo"}`,
	"{\"field_id\":\"invalid \xff\xfe utf8 \xed\xa0\x80\"}",
	"{\"field_id\":\"tab\there\"}",
	"{\"field_id\":\"del\x7f\"}",
}

func TestDecodePlanRequestParity(t *testing.T) {
	for _, body := range decodeBodies {
		checkDecodeParity(t, "plan", []byte(body))
	}
}

func TestDecodeRepairRequestParity(t *testing.T) {
	for _, body := range decodeBodies {
		checkDecodeParity(t, "repair", []byte(body))
	}
}

func TestDecodeFieldRequestParity(t *testing.T) {
	for _, body := range decodeBodies {
		checkDecodeParity(t, "field", []byte(body))
	}
}

// TestCaseFoldedKeyRefused: encoding/json matches a key to a field
// whatever its case (and folds the Kelvin sign to k); the parser refuses
// every key the API does not spell exactly, at any depth.
func TestCaseFoldedKeyRefused(t *testing.T) {
	for body, want := range map[string]string{
		`{"K":1}`:                            `invalid JSON: unknown key "K" at byte 1`,
		`{"k":1, "Field_Side":2}`:            `invalid JSON: unknown key "Field_Side" at byte 8`,
		`{"\u212a":1}`:                       "invalid JSON: unknown key \"\u212a\" at byte 1",
		`{"sensors":[{"x":1},{"ID":2}]}`:     `invalid JSON: unknown key "ID" at byte 21`,
		`{"failed":[1],"sensors":[{"Y":1}]}`: `invalid JSON: unknown key "Y" at byte 26`,
	} {
		var std RepairRequest
		if err := decodeJSON(strings.NewReader(body), &std); err != nil {
			t.Errorf("encoding/json refused %s: %v", body, err)
		}
		var rr RepairRequest
		if got := errText(decodeRequest([]byte(body), &rr.PlanRequest, &rr.Failed, nil)); got != want+" (status 400)" {
			t.Errorf("%s: %s, want %s (status 400)", body, got, want)
		}
	}
}

// TestRepeatedKeyRefused: encoding/json lets a repeated key's last value
// win, and decodes a second "sensors" array into the first one's
// elements; the parser refuses the second key.
func TestRepeatedKeyRefused(t *testing.T) {
	merged := `{"sensors":[{"id":1,"x":1,"y":2}],"sensors":[{"x":5}]}`
	var std RepairRequest
	if err := decodeJSON(strings.NewReader(merged), &std); err != nil {
		t.Fatal(err)
	}
	if s := std.Sensors; len(s) != 1 || s[0].ID == nil || *s[0].ID != 1 || s[0].X != 5 || s[0].Y != 2 {
		t.Fatalf("encoding/json read %s as %+v; the merge this test pins is gone", merged, s)
	}
	for body, want := range map[string]string{
		merged:                              `invalid JSON: repeated key "sensors" at byte 34`,
		`{"k":1,"k":2}`:                     `invalid JSON: repeated key "k" at byte 7`,
		`{"failed":[1],"failed":null}`:      `invalid JSON: repeated key "failed" at byte 14`,
		`{"sensors":[{"x":1,"y":2,"x":3}]}`: `invalid JSON: repeated key "x" at byte 25`,
	} {
		var rr RepairRequest
		if got := errText(decodeRequest([]byte(body), &rr.PlanRequest, &rr.Failed, nil)); got != want+" (status 400)" {
			t.Errorf("%s: %s, want %s (status 400)", body, got, want)
		}
	}
}

// TestDecodeErrorTexts pins the parser's own error texts, which replace
// encoding/json's: each names the key it concerns, or the byte where the
// body leaves JSON's grammar.
func TestDecodeErrorTexts(t *testing.T) {
	for body, want := range map[string]string{
		``:                              `invalid JSON: unexpected end of input`,
		`{"k":1`:                        `invalid JSON: unexpected end of input`,
		`{"k":1;`:                       `invalid JSON: invalid character ';' at byte 6`,
		`[1]`:                           `invalid JSON: invalid character '[' at byte 0`,
		`{"bogus":1}`:                   `invalid JSON: unknown key "bogus" at byte 1`,
		`{"failed":[1,2]}`:              `invalid JSON: unknown key "failed" at byte 1`,
		`{"k":1.5}`:                     `invalid JSON: invalid value for key "k" at byte 1`,
		`{"rs":4, "seed":-1}`:           `invalid JSON: invalid value for key "seed" at byte 9`,
		`{"sensors":[{"x":1e400}]}`:     `invalid JSON: invalid value for key "x" at byte 13`,
		`{"sensors":[{"x":1} {"x":2}]}`: `invalid JSON: invalid value for key "sensors" at byte 1`,
		`{"generator":"a\qb"}`:          `invalid JSON: invalid value for key "generator" at byte 1`,
		`{"k":1} {"k":2}`:               `trailing data after request object`,
	} {
		var pr PlanRequest
		if got := errText(decodeRequest([]byte(body), &pr, nil, nil)); got != want+" (status 400)" {
			t.Errorf("%q: %s, want %s (status 400)", body, got, want)
		}
	}
}

// TestUnknownKeyRefusedAtTheKey: a body is refused at its first unknown
// key, not after the rest is read. The body is 1 MiB of sensors, the
// first of which carries "z".
func TestUnknownKeyRefusedAtTheKey(t *testing.T) {
	s := newTestServer(t, Config{})
	body := []byte(repairBody(1))
	i := bytes.Index(body, []byte(`}]`))
	body = append(body[:i:i], `,"z":[1,2,3]}`...)
	const sensor, tail = `,{"id":1,"x":50.123456789012345,"y":50.123456789012345}`, `],"failed":[0]}`
	for len(body)+len(sensor)+len(tail) <= 1<<20 {
		body = append(body, sensor...)
	}
	body = append(body, tail...)
	status, _, resp := s.post(t, "/v1/repair", string(body))
	var msg struct{ Error string }
	if err := json.Unmarshal(resp, &msg); err != nil || status != http.StatusBadRequest {
		t.Fatalf("status %d, body %s", status, resp)
	}
	var at int
	if _, err := fmt.Sscanf(msg.Error, `invalid JSON: unknown key "z" at byte %d`, &at); err != nil || at >= 200 {
		t.Errorf("%d-byte body refused with %q; want the unknown key \"z\" named at a byte under 200", len(body), msg.Error)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.msg + " (status " + strconv.Itoa(ae.status) + ")"
	}
	return err.Error()
}

// ---------------------------------------------------------------------
// Event-stream parity: the pooled scanner against the oracle's reading
// of the stream, compared on what the events handler applies.
// ---------------------------------------------------------------------

// EventRequest is one failure event on the NDJSON event stream, as the
// oracle decodes it.
type EventRequest struct {
	Failed []int `json:"failed"`
}

// appliedEvents reads events with next the way the events handler does:
// it returns the failed lists applied before the stream ended, and
// whether it ended in an error (a read error, or an event naming no
// sensor) rather than at io.EOF.
func appliedEvents(next func() ([]int, error)) ([][]int, bool) {
	var seq [][]int
	for {
		failed, err := next()
		if errors.Is(err, io.EOF) {
			return seq, false
		}
		if err != nil || len(failed) == 0 {
			return seq, true
		}
		seq = append(seq, append([]int(nil), failed...))
	}
}

// oracleEvents reads a stream with encoding/json: each value must be an
// object that oracleDecode accepts as an EventRequest.
func oracleEvents(body string) ([][]int, bool) {
	dec := json.NewDecoder(strings.NewReader(body))
	return appliedEvents(func() ([]int, error) {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, err
		}
		if bytes.TrimSpace(raw)[0] != '{' {
			return nil, errors.New("not an object")
		}
		var ev EventRequest
		err := oracleDecode(raw, &ev)
		return ev.Failed, err
	})
}

// checkEventParity fails t unless the scanner, reading body through r,
// applies what the oracle applies.
func checkEventParity(t testing.TB, body string, r io.Reader) {
	t.Helper()
	sc := newEventScanner(r)
	defer sc.close()
	gotSeq, gotErr := appliedEvents(sc.next)
	wantSeq, wantErr := oracleEvents(body)
	if gotErr != wantErr || !reflect.DeepEqual(gotSeq, wantSeq) {
		t.Errorf("stream %q:\n scanner %v, ends in error %v\n oracle  %v, ends in error %v",
			body, gotSeq, gotErr, wantSeq, wantErr)
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
	`{"failed":[1,null]}`,
	`{"failed":"x"}`,
	`{"unknown":[1]}`,
	`{"Failed":[1]}`,
	`{"failed":[1]}[2]`,
	`[{"failed":[1]}]`,
	`{"failed":[1]}{"failed":[2]} {"failed":[3]}`,
	`{"fail\u0065d":[9]}`,
	`{"failed":[ 1 , 2 ]}`,
	`{ "failed" : [1] }{"failed":[2]}`,
	`{"failed":[1]}x{"failed":[2]}`,
	`{"failed":[1]} 5`,
	`{"failed":[1]}}`,
	`null {"failed":[1]}`,
	`{"failed":[1]} null`,
	`{"nested":{"failed":[1]}}`,
	`{"failed":[1],"k":3}`,
	`{"failed":[1],"x\"}":2}{"failed":[2]}`,
	"{\"failed\":[1]}\r\n\t {\"failed\":[2]}",
}

func TestEventScannerParity(t *testing.T) {
	for _, body := range eventStreams {
		checkEventParity(t, body, strings.NewReader(body))
	}
}

// TestEventScannerSmallReads re-runs the parity corpus through a reader
// that yields one byte at a time, exercising every fill/refill boundary
// in the object lexer.
func TestEventScannerSmallReads(t *testing.T) {
	for _, body := range eventStreams {
		checkEventParity(t, body, iotest(body))
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
// arbitrary bytes through the parser and the oracle, as each request
// type, must agree on acceptance and decoded value.
func FuzzRequestDecodeParity(f *testing.F) {
	for _, body := range decodeBodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, kind := range []string{"plan", "repair", "field"} {
			checkDecodeParity(t, kind, []byte(body))
		}
	})
}

// FuzzEventStreamParity fuzzes the NDJSON scanner against the oracle, in
// both one-shot and one-byte-read framing.
func FuzzEventStreamParity(f *testing.F) {
	for _, s := range eventStreams {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkEventParity(t, body, strings.NewReader(body))
		checkEventParity(t, body, iotest(body))
	})
}
