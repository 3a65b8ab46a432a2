package jsonx

// Dec is a fast-path tokenizer over a fully buffered JSON value. Every
// primitive returns ok=false the moment the input leaves the common
// grammar (escapes, non-ASCII strings, nulls, case-folded keys, exotic
// numbers); the caller must then re-decode the same bytes with
// encoding/json, so behavior on the bail path is the stdlib's, verbatim.
// Nothing here allocates: strings come back as sub-slices of Data, and
// the number table is built once per process.
type Dec struct {
	Data []byte
	Pos  int
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// SkipWS advances past JSON whitespace.
func (d *Dec) SkipWS() {
	for d.Pos < len(d.Data) && isSpace(d.Data[d.Pos]) {
		d.Pos++
	}
}

// AtEnd reports whether only whitespace remains.
func (d *Dec) AtEnd() bool {
	d.SkipWS()
	return d.Pos == len(d.Data)
}

// Consume skips whitespace and consumes c if it is next.
func (d *Dec) Consume(c byte) bool {
	d.SkipWS()
	if d.Pos < len(d.Data) && d.Data[d.Pos] == c {
		d.Pos++
		return true
	}
	return false
}

// Key consumes an object key and its ':'. Only exact, escape-free keys
// in the [a-z0-9_] alphabet qualify — anything else (which stdlib might
// still match case-insensitively) must go to the fallback decoder.
func (d *Dec) Key() (key []byte, ok bool) {
	if !d.Consume('"') {
		return nil, false
	}
	start := d.Pos
	for d.Pos < len(d.Data) {
		c := d.Data[d.Pos]
		if c == '"' {
			key = d.Data[start:d.Pos]
			d.Pos++
			if !d.Consume(':') {
				return nil, false
			}
			return key, true
		}
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return nil, false
		}
		d.Pos++
	}
	return nil, false
}

// Str consumes a string value made only of printable ASCII with no
// escapes and returns the bytes between the quotes (aliasing Data).
func (d *Dec) Str() (s []byte, ok bool) {
	if !d.Consume('"') {
		return nil, false
	}
	start := d.Pos
	for d.Pos < len(d.Data) {
		c := d.Data[d.Pos]
		if c == '"' {
			s = d.Data[start:d.Pos]
			d.Pos++
			return s, true
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, false
		}
		d.Pos++
	}
	return nil, false
}
