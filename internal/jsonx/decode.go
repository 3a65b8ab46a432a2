package jsonx

import (
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Dec is a tokenizer over a fully buffered JSON value, and the only
// reader of request bodies and event streams. Every primitive returns
// ok=false where the input leaves the grammar, and the caller reports
// the error at Pos. Strings decode as encoding/json decodes them; an
// escape-free ASCII string, like every key and number, is read without
// allocating: strings come back as sub-slices of Data, and the number
// table is built once per process.
type Dec struct {
	Data []byte
	Pos  int
	buf  []byte // the last string that needed decoding
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

// Null skips whitespace and consumes the literal null if it is next.
func (d *Dec) Null() bool {
	d.SkipWS()
	if len(d.Data)-d.Pos >= 4 && string(d.Data[d.Pos:d.Pos+4]) == "null" {
		d.Pos += 4
		return true
	}
	return false
}

// Key consumes an object key and its ':', and returns the key decoded
// as Str decodes a string. Keys in the [a-z0-9_] alphabet, which is
// every key the API spells, are read inline.
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
			return key, d.Consume(':')
		}
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			if key, ok = d.str(start); !ok {
				return nil, false
			}
			return key, d.Consume(':')
		}
		d.Pos++
	}
	return nil, false
}

// Str consumes a string value and returns its bytes as encoding/json
// decodes them: escapes resolved, a \u escape of an unpaired surrogate
// and each invalid UTF-8 byte replaced with U+FFFD, and an unescaped
// control character refused. An escape-free ASCII string aliases Data;
// any other is valid until the next Key or Str call.
func (d *Dec) Str() (s []byte, ok bool) {
	if !d.Consume('"') {
		return nil, false
	}
	return d.str(d.Pos)
}

// str reads the rest of a string whose contents begin at start, after
// its opening quote; the bytes from start to Pos are plain ASCII. On an
// error Pos is left at the offending byte.
func (d *Dec) str(start int) ([]byte, bool) {
	data, i := d.Data, d.Pos
	for ; i < len(data); i++ {
		c := data[i]
		if c == '"' {
			d.Pos = i + 1
			return data[start:i], true
		}
		if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	b := append(d.buf[:0], data[start:i]...)
	for i < len(data) {
		d.Pos = i
		switch c := data[i]; {
		case c == '"':
			d.Pos, d.buf = i+1, b
			return b, true
		case c < 0x20:
			return nil, false
		case c == '\\':
			if i+1 == len(data) {
				return nil, false
			}
			if e := unescape[data[i+1]]; e != 0 {
				b = append(b, e)
				i += 2
				continue
			}
			r := hex4(data, i)
			if r < 0 {
				return nil, false
			}
			i += 6
			if utf16.IsSurrogate(r) {
				// Only a \u escape completing the pair is read with it.
				if r = utf16.DecodeRune(r, hex4(data, i)); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r) // an invalid byte decodes as U+FFFD
			i += n
		}
	}
	d.Pos = i
	return nil, false
}

// unescape maps the byte after a backslash to the byte it stands for,
// for every escape but \u.
var unescape = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// hex4 returns the code unit of the \uXXXX escape at data[i:], or -1
// where there is none.
func hex4(data []byte, i int) rune {
	if len(data)-i < 6 || data[i] != '\\' || data[i+1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(noCopyString(data[i+2:i+6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}
