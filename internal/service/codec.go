package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"decor/internal/jsonx"
)

// This file is the serving layer's hand-rolled codec (DESIGN.md §16):
// append-based encoders whose bytes are identical to encoding/json's,
// and fast-path request parsers that bail to encoding/json on anything
// outside the common grammar. Byte parity is a hard invariant — the
// plan cache, the flight group, and X-Decor-Cache all promise that one
// request body maps to one response byte string regardless of which
// path (miss, hit, coalesced, replayed delta) produced it.

// reqKey is the canonical request hash used by the plan cache and the
// flight group (requestKey). A fixed-size array key costs no allocation
// per lookup, unlike a hex string.
type reqKey [32]byte

// ---------------------------------------------------------------------
// Response encoders
// ---------------------------------------------------------------------

// appendErrorBody appends {"error":"msg"} followed by a newline — the
// exact bytes json.Marshal of the error struct plus '\n' produced.
func appendErrorBody(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = jsonx.AppendString(b, msg)
	return append(b, '}', '\n')
}

// appendPlanResponse appends resp exactly as json.Marshal renders it
// (no trailing newline). The only failure mode is a non-finite float,
// which json.Marshal also refuses.
func appendPlanResponse(b []byte, resp *PlanResponse) ([]byte, error) {
	var ok bool
	b = append(b, `{"method":`...)
	b = jsonx.AppendString(b, resp.Method)
	b = append(b, `,"k":`...)
	b = jsonx.AppendInt(b, int64(resp.K))
	b = append(b, `,"placed":`...)
	b = jsonx.AppendInt(b, int64(resp.Placed))
	b = append(b, `,"total_sensors":`...)
	b = jsonx.AppendInt(b, int64(resp.TotalSensors))
	b = append(b, `,"messages":`...)
	b = jsonx.AppendInt(b, int64(resp.Messages))
	b = append(b, `,"messages_per_cell":`...)
	if b, ok = jsonx.AppendFloat(b, resp.MessagesPerCell); !ok {
		return b, errNonFinite("messages_per_cell", resp.MessagesPerCell)
	}
	b = append(b, `,"rounds":`...)
	b = jsonx.AppendInt(b, int64(resp.Rounds))
	b = append(b, `,"seeded":`...)
	b = jsonx.AppendInt(b, int64(resp.Seeded))
	if resp.Failed != 0 {
		b = append(b, `,"failed":`...)
		b = jsonx.AppendInt(b, int64(resp.Failed))
	}
	b = append(b, `,"placements":`...)
	if resp.Placements == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Placements {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendPointSpec(b, &resp.Placements[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"coverage_k":`...)
	if b, ok = jsonx.AppendFloat(b, resp.CoverageK); !ok {
		return b, errNonFinite("coverage_k", resp.CoverageK)
	}
	b = append(b, `,"coverage_1":`...)
	if b, ok = jsonx.AppendFloat(b, resp.Coverage1); !ok {
		return b, errNonFinite("coverage_1", resp.Coverage1)
	}
	b = append(b, `,"fully_covered":`...)
	b = jsonx.AppendBool(b, resp.Covered)
	return append(b, '}'), nil
}

func appendPointSpec(b []byte, p *PointSpec) ([]byte, error) {
	var ok bool
	b = append(b, `{"x":`...)
	if b, ok = jsonx.AppendFloat(b, p.X); !ok {
		return b, errNonFinite("placement x", p.X)
	}
	b = append(b, `,"y":`...)
	if b, ok = jsonx.AppendFloat(b, p.Y); !ok {
		return b, errNonFinite("placement y", p.Y)
	}
	return append(b, '}'), nil
}

func errNonFinite(field string, v float64) error {
	return fmt.Errorf("service: response %s %v is not a valid JSON number", field, v)
}

// ---------------------------------------------------------------------
// Cache key
// ---------------------------------------------------------------------

// Endpoint tags: the first byte of every key's binary form, so /v1/plan
// and /v1/repair keys stay disjoint even for identical field bodies.
const (
	keyTagPlan   byte = 'P'
	keyTagRepair byte = 'R'
)

// requestKey hashes a normalized request into its cache key: SHA-256
// over a fixed-width binary form of the values, never a re-rendering of
// them. Fixed-width numbers and length-prefixed names make the form
// injective, and it tracks json.Marshal's identity exactly: float64 bits
// tell -0 from 0 as the rendered "-0" does, an empty and an absent
// sensor list both encode as count 0 (omitempty drops both), while
// failed carries a presence byte because Marshal renders nil as null and
// empty as []. timeout_ms is left out: it bounds how long a client
// waits, never what the plan contains. A plan's failed section is
// always "absent", so the tag alone separates it from a repair.
func requestKey(tag byte, pr *PlanRequest, failed []int) reqKey {
	buf := jsonx.GetBuf()
	defer jsonx.PutBuf(buf)
	b := append((*buf)[:0], tag)
	b = appendKeyFloat(b, pr.FieldSide)
	b = appendKeyInt(b, pr.K)
	b = appendKeyFloat(b, pr.Rs)
	b = appendKeyFloat(b, pr.Rc)
	b = appendKeyInt(b, pr.NumPoints)
	b = appendKeyName(b, pr.Generator)
	b = binary.LittleEndian.AppendUint64(b, pr.Seed)
	b = appendKeyInt(b, len(pr.Sensors))
	for i := range pr.Sensors {
		s := &pr.Sensors[i]
		if s.ID == nil {
			b = append(b, 0)
		} else {
			b = appendKeyInt(append(b, 1), *s.ID)
		}
		b = appendKeyFloat(b, s.X)
		b = appendKeyFloat(b, s.Y)
	}
	b = appendKeyInt(b, pr.Scatter)
	b = appendKeyName(b, pr.Method)
	if failed == nil {
		b = append(b, 0)
	} else {
		b = appendKeyInt(append(b, 1), len(failed))
		for _, id := range failed {
			b = appendKeyInt(b, id)
		}
	}
	*buf = b
	return sha256.Sum256(b)
}

func appendKeyInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendKeyFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendKeyName(b []byte, s string) []byte {
	return append(appendKeyInt(b, len(s)), s...)
}

// ---------------------------------------------------------------------
// Request body reading
// ---------------------------------------------------------------------

// readBody drains r into the pooled buffer *buf and returns the bytes.
// A MaxBytesReader limit trip maps to the same 413 apiError decodeJSON
// produced; any other read failure wraps exactly as the stream decoder
// used to surface it.
func readBody(r io.Reader, buf *[]byte) ([]byte, error) {
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*buf = b
			return b, nil
		}
		if err != nil {
			*buf = b
			var maxErr *http.MaxBytesError
			if errors.As(err, &maxErr) {
				return nil, &apiError{status: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
			}
			return nil, badRequest("invalid JSON: %v", err)
		}
	}
}

// ---------------------------------------------------------------------
// Fast-path request decoding
// ---------------------------------------------------------------------

// internName returns a copy of b as a string, reusing the static name
// for the generator/method vocabulary so the hot path never allocates
// for a name the server actually recognizes.
func internName(b []byte) string {
	switch string(b) { // compiled to an alloc-free comparison
	case "halton":
		return "halton"
	case "hammersley":
		return "hammersley"
	case "sobol":
		return "sobol"
	case "uniform":
		return "uniform"
	case "jittered":
		return "jittered"
	case "lhs":
		return "lhs"
	case "faure":
		return "faure"
	case "halton-scrambled":
		return "halton-scrambled"
	case "centralized":
		return "centralized"
	case "random":
		return "random"
	case "grid-small":
		return "grid-small"
	case "grid-big":
		return "grid-big"
	case "voronoi-small":
		return "voronoi-small"
	case "voronoi-big":
		return "voronoi-big"
	case "lattice":
		return "lattice"
	}
	return string(b)
}

// decInt narrows a fast-parsed integer into int, bailing on platforms
// where it would not round-trip.
func decInt(d *jsonx.Dec) (int, bool) {
	v, ok := d.Int()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// fastParsePlanFields parses one JSON object's worth of PlanRequest
// fields into pr. Keys outside the plan vocabulary go to extra (nil
// extra means bail); any grammar the fast path cannot prove equivalent
// to encoding/json's reading — escapes, nulls, case-folded keys,
// unknown fields, a repeated key — reports false, and the caller MUST
// rerun the stdlib decoder over the same bytes for exact acceptance and
// error parity. (On a repeated "sensors" key encoding/json decodes the
// second array into the first array's elements.)
func fastParsePlanFields(d *decoder, pr *PlanRequest, extra func(key []byte, d *decoder) bool) bool {
	if !d.Consume('{') {
		return false
	}
	if d.Consume('}') {
		return true
	}
	var seen uint16 // one bit per key; every extra hook takes one key
	for {
		key, ok := d.Key()
		if !ok {
			return false
		}
		var bit uint16
		switch string(key) {
		case "field_side":
			bit = 1 << 0
			pr.FieldSide, ok = d.Float()
		case "k":
			bit = 1 << 1
			pr.K, ok = decInt(&d.Dec)
		case "rs":
			bit = 1 << 2
			pr.Rs, ok = d.Float()
		case "rc":
			bit = 1 << 3
			pr.Rc, ok = d.Float()
		case "num_points":
			bit = 1 << 4
			pr.NumPoints, ok = decInt(&d.Dec)
		case "generator":
			bit = 1 << 5
			var s []byte
			s, ok = d.Str()
			pr.Generator = internName(s)
		case "seed":
			bit = 1 << 6
			pr.Seed, ok = d.Uint()
		case "sensors":
			bit = 1 << 7
			pr.Sensors, ok = d.sensorList()
		case "scatter":
			bit = 1 << 8
			pr.Scatter, ok = decInt(&d.Dec)
		case "method":
			bit = 1 << 9
			var s []byte
			s, ok = d.Str()
			pr.Method = internName(s)
		case "timeout_ms":
			bit = 1 << 10
			pr.TimeoutMS, ok = decInt(&d.Dec)
		default:
			bit = 1 << 15
			ok = extra != nil && extra(key, d)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.Consume(',') {
			continue
		}
		return d.Consume('}')
	}
}

// sensorList parses a sensor array into the decoder's scratch, then
// hands it to internSensors.
func (d *decoder) sensorList() ([]SensorSpec, bool) {
	if !d.Consume('[') {
		return nil, false
	}
	raw := d.sensors[:0]
	if d.Consume(']') {
		return internSensors(raw), true
	}
	for {
		var s rawSensor
		if !d.Consume('{') {
			return nil, false
		}
		if !d.Consume('}') {
			for {
				key, ok := d.Key()
				if !ok {
					return nil, false
				}
				switch string(key) {
				case "id":
					if s.id, ok = decInt(&d.Dec); !ok {
						return nil, false
					}
					s.hasID = true
				case "x":
					if s.x, ok = d.Float(); !ok {
						return nil, false
					}
				case "y":
					if s.y, ok = d.Float(); !ok {
						return nil, false
					}
				default:
					return nil, false
				}
				if d.Consume(',') {
					continue
				}
				if d.Consume('}') {
					break
				}
				return nil, false
			}
		}
		raw = append(raw, s)
		if d.Consume(',') {
			continue
		}
		if d.Consume(']') {
			d.sensors = raw
			return internSensors(raw), true
		}
		return nil, false
	}
}

// internSensors copies parsed sensors out at their exact size, with
// every explicit ID interned in one backing array: a list costs two
// allocations whatever its length, and never reserves room for sensors
// the body does not contain.
func internSensors(raw []rawSensor) []SensorSpec {
	nIDs := 0
	for i := range raw {
		if raw[i].hasID {
			nIDs++
		}
	}
	out := make([]SensorSpec, len(raw)) // "[]" decodes to a non-nil empty slice, like stdlib
	ids := make([]int, 0, nIDs)
	for i, r := range raw {
		out[i] = SensorSpec{X: r.x, Y: r.y}
		if r.hasID {
			ids = append(ids, r.id)
			out[i].ID = &ids[len(ids)-1]
		}
	}
	return out
}

// intList parses an integer array through the decoder's scratch and
// copies it out at its exact size.
func (d *decoder) intList() ([]int, bool) {
	v, ok := fastParseInts(&d.Dec, d.ints)
	if !ok {
		return nil, false
	}
	d.ints = v[:0]
	return append(make([]int, 0, len(v)), v...), true
}

// fastParseInts parses a JSON array of integers into scratch's backing
// array. "[]"-for-empty matches stdlib's non-nil empty slice.
func fastParseInts(d *jsonx.Dec, scratch []int) ([]int, bool) {
	if !d.Consume('[') {
		return nil, false
	}
	out := scratch[:0]
	if out == nil {
		out = make([]int, 0)
	}
	if d.Consume(']') {
		return out, true
	}
	for {
		v, ok := decInt(d)
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if d.Consume(',') {
			continue
		}
		if d.Consume(']') {
			return out, true
		}
		return nil, false
	}
}

// finishFast applies decodeJSON's trailing-data rule to a fast-parsed
// body: trailing whitespace is fine, anything else is the same 400.
func finishFast(d *jsonx.Dec) error {
	if !d.AtEnd() {
		return badRequest("trailing data after request object")
	}
	return nil
}

// decoder is the per-body decode state: the cursor, plus the scratch a
// sensor or failed list is parsed into before it is copied out. It is
// pooled: a stack value would be free, but the field-hook closure in
// fastParsePlanFields makes escape analysis move it to the heap on every
// call, and the pool also keeps the scratch warm. The scratch a pooled
// decoder retains is bounded by the body size limit.
type decoder struct {
	jsonx.Dec
	sensors []rawSensor
	ints    []int
}

// rawSensor is one parsed sensor object before its ID is interned.
type rawSensor struct {
	x, y  float64
	id    int
	hasID bool
}

var decPool = sync.Pool{New: func() any { return new(decoder) }}

func getDecoder(data []byte) *decoder {
	d := decPool.Get().(*decoder)
	d.Dec = jsonx.Dec{Data: data}
	return d
}

func putDecoder(d *decoder) {
	d.Data = nil // don't pin the (pooled) body buffer
	decPool.Put(d)
}

// decodePlanRequest decodes one /v1/plan body: fast path first, stdlib
// fallback (over the identical bytes, after resetting pr) on any bail.
func decodePlanRequest(data []byte, pr *PlanRequest) error {
	d := getDecoder(data)
	defer putDecoder(d)
	if fastParsePlanFields(d, pr, nil) {
		return finishFast(&d.Dec)
	}
	*pr = PlanRequest{}
	return decodeJSON(bytes.NewReader(data), pr)
}

// decodeRepairRequest decodes one /v1/repair body the same way.
func decodeRepairRequest(data []byte, rr *RepairRequest) error {
	d := getDecoder(data)
	defer putDecoder(d)
	ok := fastParsePlanFields(d, &rr.PlanRequest, func(key []byte, d *decoder) bool {
		if string(key) != "failed" {
			return false
		}
		var ok bool
		rr.Failed, ok = d.intList()
		return ok
	})
	if ok {
		return finishFast(&d.Dec)
	}
	*rr = RepairRequest{}
	return decodeJSON(bytes.NewReader(data), rr)
}

// decodeFieldRequest decodes one POST /v1/fields body.
func decodeFieldRequest(data []byte, fr *FieldRequest) error {
	d := getDecoder(data)
	defer putDecoder(d)
	ok := fastParsePlanFields(d, &fr.PlanRequest, func(key []byte, d *decoder) bool {
		if string(key) != "field_id" {
			return false
		}
		s, ok := d.Str()
		if !ok {
			return false
		}
		fr.FieldID = string(s)
		return true
	})
	if ok {
		return finishFast(&d.Dec)
	}
	*fr = FieldRequest{}
	return decodeJSON(bytes.NewReader(data), fr)
}

// ---------------------------------------------------------------------
// NDJSON event stream scanning
// ---------------------------------------------------------------------

// eventScanner reads the whitespace-separated stream of failure-event
// objects from a request body the way json.Decoder did, without a
// json.Unmarshal per event: objects are lexed out of a single pooled
// buffer and fast-parsed into a reused []int. The moment the stream
// leaves the fast grammar — a non-object value, a mid-object EOF, an
// escape, an unknown field — the scanner hands the unconsumed bytes to
// a real json.Decoder and stays there, so every acceptance decision and
// error string on the slow path is the stdlib's.
type eventScanner struct {
	body     io.Reader
	bufp     *[]byte
	pos      int
	eof      bool
	fallback *json.Decoder
	scratch  []int
}

func newEventScanner(body io.Reader) *eventScanner {
	return &eventScanner{body: body, bufp: jsonx.GetBuf()}
}

// close releases the pooled buffer. The scanner must not be used after;
// the []int returned by next is owned by the caller only until the
// following next call (session.Manager.Apply copies it synchronously).
func (sc *eventScanner) close() {
	jsonx.PutBuf(sc.bufp)
	sc.bufp = nil
}

// fill reads more body bytes into the buffer; returns false at EOF.
func (sc *eventScanner) fill() (bool, error) {
	if sc.eof {
		return false, nil
	}
	b := *sc.bufp
	if len(b) == cap(b) {
		b = append(b, 0)[:len(b)]
	}
	n, err := sc.body.Read(b[len(b):cap(b)])
	*sc.bufp = b[: len(b)+n : cap(b)]
	if err == io.EOF {
		sc.eof = true
		return n > 0, nil
	}
	if err != nil {
		return false, err
	}
	return n > 0 || !sc.eof, nil
}

// switchToFallback routes everything from the current position on
// through a stdlib decoder with the stream semantics the old handler
// used, then serves the next event from it.
func (sc *eventScanner) switchToFallback() ([]int, error) {
	rest := (*sc.bufp)[sc.pos:]
	var r io.Reader = sc.body
	if sc.eof {
		r = bytes.NewReader(rest)
	} else if len(rest) > 0 {
		r = io.MultiReader(bytes.NewReader(rest), sc.body)
	}
	sc.fallback = json.NewDecoder(r)
	sc.fallback.DisallowUnknownFields()
	return sc.next()
}

// next returns the failed-sensor list of the next event, io.EOF at the
// clean end of the stream, or the error the old json.Decoder loop would
// have surfaced. The returned slice is valid until the next call.
func (sc *eventScanner) next() ([]int, error) {
	if sc.fallback != nil {
		var ev EventRequest
		if err := sc.fallback.Decode(&ev); err != nil {
			return nil, err
		}
		return ev.Failed, nil
	}
	// Skip inter-value whitespace, filling as needed.
	for {
		b := *sc.bufp
		for sc.pos < len(b) && (b[sc.pos] == ' ' || b[sc.pos] == '\t' || b[sc.pos] == '\r' || b[sc.pos] == '\n') {
			sc.pos++
		}
		if sc.pos < len(b) {
			break
		}
		more, err := sc.fill()
		if err != nil {
			return nil, err
		}
		if !more && sc.pos >= len(*sc.bufp) {
			return nil, io.EOF
		}
	}
	if (*sc.bufp)[sc.pos] != '{' {
		return sc.switchToFallback()
	}
	// Lex one balanced object, filling as needed.
	start := sc.pos
	depth := 0
	inStr, esc := false, false
	i := sc.pos
	for {
		b := *sc.bufp
		for ; i < len(b); i++ {
			c := b[i]
			switch {
			case esc:
				esc = false
			case inStr:
				if c == '\\' {
					esc = true
				} else if c == '"' {
					inStr = false
				}
			case c == '"':
				inStr = true
			case c == '{':
				depth++
			case c == '}':
				depth--
				if depth == 0 {
					i++
					goto object
				}
			}
		}
		more, err := sc.fill()
		if err != nil {
			return nil, err
		}
		if !more && i >= len(*sc.bufp) {
			// EOF mid-object: the stdlib decoder turns this into
			// io.ErrUnexpectedEOF (or a syntax error); reproduce it.
			return sc.switchToFallback()
		}
	}
object:
	obj := (*sc.bufp)[start:i]
	sc.pos = i
	if failed, ok := fastParseEvent(obj, sc.scratch); ok {
		sc.scratch = failed[:0]
		return failed, nil
	}
	// The object is balanced but outside the fast grammar: decode just
	// its bytes with the stdlib for exact field/error semantics.
	dec := json.NewDecoder(bytes.NewReader(obj))
	dec.DisallowUnknownFields()
	var ev EventRequest
	if err := dec.Decode(&ev); err != nil {
		return nil, err
	}
	return ev.Failed, nil
}

// fastParseEvent parses {"failed":[ints]} into scratch's backing array.
func fastParseEvent(data []byte, scratch []int) ([]int, bool) {
	d := jsonx.Dec{Data: data}
	if !d.Consume('{') {
		return nil, false
	}
	if d.Consume('}') {
		return scratch[:0], true
	}
	var failed []int
	for {
		key, ok := d.Key()
		if !ok || string(key) != "failed" {
			return nil, false
		}
		if failed, ok = fastParseInts(&d, scratch); !ok {
			return nil, false
		}
		if d.Consume(',') {
			continue
		}
		if !d.Consume('}') {
			return nil, false
		}
		return failed, d.AtEnd()
	}
}
