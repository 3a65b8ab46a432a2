package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"decor/internal/jsonx"
)

// This file is the serving layer's hand-rolled codec (DESIGN.md §16):
// append-based encoders whose bytes are identical to encoding/json's,
// and the one parser of request bodies and event streams, on jsonx.Dec.
// Byte parity is a hard invariant — the plan cache and X-Decor-Cache
// both promise that one request body maps to one response byte string
// regardless of which path (miss, hit, replayed delta) produced it.

// reqKey is a request's key in the plan cache:
// SHA-256 over its endpoint tag and its body's exact bytes (readKeyed).
// A fixed-size array key costs no allocation per lookup, unlike a hex
// string.
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
// Request body reading
// ---------------------------------------------------------------------

// readBody drains r onto the end of the pooled buffer *buf and returns
// the bytes it read. A MaxBytesReader limit trip is a 413; any other
// read failure is a 400.
func readBody(r io.Reader, buf *[]byte) ([]byte, error) {
	b, start := *buf, len(*buf)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*buf = b
			return b[start:], nil
		}
		if err != nil {
			*buf = b
			if ae := tooLarge(err); ae != nil {
				return nil, ae
			}
			return nil, badRequest("invalid JSON: %v", err)
		}
	}
}

// Endpoint tags: the first byte hashed into every request key, so the
// same bytes sent to /v1/plan and to /v1/repair are two requests.
const (
	keyTagPlan   byte = 'P'
	keyTagRepair byte = 'R'
)

// readKeyed reads a /v1/plan or /v1/repair body (tag keyTagPlan or
// keyTagRepair) into the pooled buffer *buf behind its tag and returns
// it with its key: SHA-256 over the tag and the exact bytes. Hashing the
// buffer in place allocates nothing. Only a body read to its end is
// keyed.
func readKeyed(r io.Reader, buf *[]byte, tag byte) ([]byte, reqKey, error) {
	*buf = append((*buf)[:0], tag)
	data, err := readBody(r, buf)
	if err != nil {
		return nil, reqKey{}, err
	}
	return data, sha256.Sum256(*buf), nil
}

// tooLarge returns the 413 for a MaxBytesReader limit trip, nil for any
// other read error.
func tooLarge(err error) error {
	var maxErr *http.MaxBytesError
	if !errors.As(err, &maxErr) {
		return nil
	}
	return &apiError{status: http.StatusRequestEntityTooLarge,
		msg: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
}

// ---------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------

// The request keys, one bit each. Keys match exactly, and a key seen
// twice in one object is refused: encoding/json would fold case, and
// decode a second "sensors" array into the first one's elements.
const (
	keyFieldSide uint16 = 1 << iota
	keyK
	keyRs
	keyRc
	keyNumPoints
	keyGenerator
	keySeed
	keySensors
	keyScatter
	keyMethod
	keyTimeoutMS
	keyFailed
	keyFieldID
	planKeys = keyFailed - 1
)

var keyBits = map[string]uint16{
	"field_side": keyFieldSide, "k": keyK, "rs": keyRs, "rc": keyRc,
	"num_points": keyNumPoints, "generator": keyGenerator, "seed": keySeed,
	"sensors": keySensors, "scatter": keyScatter, "method": keyMethod,
	"timeout_ms": keyTimeoutMS, "failed": keyFailed, "field_id": keyFieldID,
}

// knownNames maps each generator and method name the server accepts to
// itself.
var knownNames = func() map[string]string {
	m := make(map[string]string)
	for _, set := range []map[string]bool{validGenSet, validMethodSet} {
		for n := range set {
			m[n] = n
		}
	}
	return m
}()

// readName reads a generator or method name. A name the server accepts
// comes back as its static string, so it costs no allocation.
func readName(d *jsonx.Dec) (string, bool) {
	s, ok := d.Str()
	if n, known := knownNames[string(s)]; known {
		return n, ok
	}
	return string(s), ok
}

// decInt narrows an integer into int, failing on platforms where it
// would not round-trip.
func decInt(d *jsonx.Dec) (int, bool) {
	v, ok := d.Int()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// decoder is the per-body decode state: the cursor, plus the scratch a
// sensor or failed list is parsed into. Decoders are pooled to keep
// that scratch warm; what a pooled decoder retains is bounded by the
// body size limit.
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
	d.Data, d.Pos = data, 0
	return d
}

func putDecoder(d *decoder) {
	d.Data = nil // don't pin the (pooled) body buffer
	decPool.Put(d)
}

// decodeRequest decodes one request body: the plan fields into pr, and
// "failed" and "field_id" into failed and fieldID, each nil where the
// endpoint does not take it. A failed list is copied out of the
// decoder's scratch at its exact size.
func decodeRequest(data []byte, pr *PlanRequest, failed *[]int, fieldID *string) error {
	d := getDecoder(data)
	defer putDecoder(d)
	if err := d.object(pr, failed, fieldID); err != nil {
		return badRequest("invalid JSON: %v", err)
	}
	if !d.AtEnd() {
		return badRequest("trailing data after request object")
	}
	if failed != nil && *failed != nil {
		*failed = append(make([]int, 0, len(*failed)), *failed...)
	}
	return nil
}

// object decodes one request object. A key whose destination is nil is
// unknown; a failed list is left in the decoder's scratch. null, as the
// object, a field or a list element, leaves its destination as it is.
func (d *decoder) object(pr *PlanRequest, failed *[]int, fieldID *string) error {
	if !d.Consume('{') {
		if d.Null() {
			return nil
		}
		return d.syntaxError()
	}
	var allowed, seen uint16
	if pr != nil {
		allowed |= planKeys
	}
	if failed != nil {
		allowed |= keyFailed
	}
	if fieldID != nil {
		allowed |= keyFieldID
	}
	for !d.Consume('}') {
		if seen != 0 && !d.Consume(',') {
			return d.syntaxError()
		}
		at := d.Pos
		key, ok := d.Key()
		if !ok {
			return d.syntaxError()
		}
		bit := keyBits[string(key)]
		switch {
		case bit&allowed == 0:
			return d.keyError("unknown key", at)
		case bit&seen != 0:
			return d.keyError("repeated key", at)
		}
		seen |= bit
		var err error
		if !d.Null() { // null leaves the destination as it is
			switch bit {
			case keyFieldSide:
				pr.FieldSide, ok = d.Float()
			case keyK:
				pr.K, ok = decInt(&d.Dec)
			case keyRs:
				pr.Rs, ok = d.Float()
			case keyRc:
				pr.Rc, ok = d.Float()
			case keyNumPoints:
				pr.NumPoints, ok = decInt(&d.Dec)
			case keyGenerator:
				pr.Generator, ok = readName(&d.Dec)
			case keySeed:
				pr.Seed, ok = d.Uint()
			case keySensors:
				pr.Sensors, ok, err = d.sensorList()
			case keyScatter:
				pr.Scatter, ok = decInt(&d.Dec)
			case keyMethod:
				pr.Method, ok = readName(&d.Dec)
			case keyTimeoutMS:
				pr.TimeoutMS, ok = decInt(&d.Dec)
			case keyFailed:
				*failed, ok = d.intList()
			case keyFieldID:
				var s []byte
				s, ok = d.Str()
				*fieldID = string(s)
			}
		}
		if err != nil {
			return err
		}
		if !ok {
			return d.keyError("invalid value for key", at)
		}
	}
	return nil
}

// syntaxError reports the byte where the input leaves JSON's grammar.
func (d *decoder) syntaxError() error {
	if d.Pos >= len(d.Data) {
		return errors.New("unexpected end of input")
	}
	return fmt.Errorf("invalid character %q at byte %d", d.Data[d.Pos], d.Pos)
}

// keyError names the key at at, after any whitespace, and its offset.
func (d *decoder) keyError(what string, at int) error {
	d.Pos = at
	d.SkipWS()
	at = d.Pos
	key, _ := d.Key()
	return fmt.Errorf("%s %q at byte %d", what, key, at)
}

// sensorList parses a sensor array through the decoder's scratch, and
// internSensors copies it out. It reports false for a value that is no
// such list, and an error for a key inside a sensor that is unknown,
// repeated or holds an invalid value.
func (d *decoder) sensorList() ([]SensorSpec, bool, error) {
	if !d.Consume('[') {
		return nil, false, nil
	}
	raw := d.sensors[:0]
	if !d.Consume(']') {
		for {
			var s rawSensor
			if ok, err := d.sensor(&s); !ok {
				return nil, false, err
			}
			raw = append(raw, s)
			if d.Consume(',') {
				continue
			}
			if !d.Consume(']') {
				return nil, false, nil
			}
			break
		}
	}
	d.sensors = raw
	return internSensors(raw), true, nil
}

// sensor parses one sensor object, or null, into s, reporting as
// sensorList does.
func (d *decoder) sensor(s *rawSensor) (bool, error) {
	if !d.Consume('{') {
		return d.Null(), nil
	}
	if d.Consume('}') {
		return true, nil
	}
	var seen uint8
	for {
		at := d.Pos
		key, ok := d.Key()
		if !ok {
			return false, nil
		}
		start := d.Pos
		var bit uint8
		switch string(key) {
		case "id":
			bit = 1
			s.id, s.hasID = decInt(&d.Dec)
			ok = s.hasID
		case "x":
			bit = 2
			s.x, ok = d.Float()
		case "y":
			bit = 4
			s.y, ok = d.Float()
		default:
			return false, d.keyError("unknown key", at)
		}
		if !ok {
			ok = d.nullAt(start)
		}
		switch {
		case seen&bit != 0:
			return false, d.keyError("repeated key", at)
		case !ok:
			return false, d.keyError("invalid value for key", at)
		}
		seen |= bit
		if !d.Consume(',') {
			return d.Consume('}'), nil
		}
	}
}

// nullAt reads null at the start of a value that failed to read as a
// number, leaving the number's destination zero. It restarts there
// because where a failed number stopped, "1.5null" would read as null.
func (d *decoder) nullAt(start int) bool {
	d.Pos = start
	return d.Null()
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

// intList parses an integer array into the decoder's scratch: "[]" is
// a non-nil empty list, as encoding/json reads it, and a null element
// reads as 0.
func (d *decoder) intList() ([]int, bool) {
	if !d.Consume('[') {
		return nil, false
	}
	out := d.ints[:0]
	if out == nil {
		out = make([]int, 0)
	}
	for !d.Consume(']') {
		if len(out) > 0 && !d.Consume(',') {
			return nil, false
		}
		start := d.Pos
		v, ok := decInt(&d.Dec)
		if !ok && !d.nullAt(start) {
			return nil, false
		}
		out = append(out, v)
	}
	d.ints = out
	return out, true
}

// ---------------------------------------------------------------------
// NDJSON event stream scanning
// ---------------------------------------------------------------------

// eventScanner reads the whitespace-separated stream of failure-event
// objects from a request body: each object is lexed out of a single
// pooled buffer, then decoded by the request parser with "failed" as its
// only key, into a failed list that stays in the scanner's scratch. An
// event must be an object; any other value, null included, ends the
// stream with an error, as a malformed or cut-off object does.
type eventScanner struct {
	body io.Reader
	bufp *[]byte
	pos  int
	err  error // the body's read error, io.EOF at its end
	dec  decoder
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

// fill reads more body bytes into the buffer. The body's read error,
// io.EOF included, is returned only by a call that adds no bytes, so
// the events completed by the bytes read with it come first.
func (sc *eventScanner) fill() error {
	if sc.err != nil {
		return sc.err
	}
	b := *sc.bufp
	if len(b) == cap(b) {
		b = append(b, 0)[:len(b)]
	}
	n, err := sc.body.Read(b[len(b):cap(b)])
	*sc.bufp = b[: len(b)+n : cap(b)]
	sc.err = err
	if n > 0 {
		return nil
	}
	return err
}

// next returns the failed-sensor list of the next event, io.EOF at the
// clean end of the stream, or the error that ends it, with offsets
// counted from the stream's start. The slice is valid until the next
// call.
func (sc *eventScanner) next() ([]int, error) {
	// Skip inter-value whitespace, filling as needed.
	for {
		b := *sc.bufp
		for sc.pos < len(b) && (b[sc.pos] == ' ' || b[sc.pos] == '\t' || b[sc.pos] == '\r' || b[sc.pos] == '\n') {
			sc.pos++
		}
		if sc.pos < len(b) {
			break
		}
		if err := sc.fill(); err != nil {
			return nil, err
		}
	}
	if (*sc.bufp)[sc.pos] != '{' {
		return nil, fmt.Errorf("event at byte %d is not an object", sc.pos)
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
		if err := sc.fill(); err == io.EOF {
			return nil, fmt.Errorf("event at byte %d is cut off by the end of the stream", start)
		} else if err != nil {
			return nil, err
		}
	}
object:
	sc.pos = i
	sc.dec.Data, sc.dec.Pos = (*sc.bufp)[:i], start
	var failed []int
	if err := sc.dec.object(nil, &failed, nil); err != nil {
		return nil, err
	}
	return failed, nil
}
