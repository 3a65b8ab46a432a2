// Package jsonx is the serving layer's hand-rolled JSON kernel: pooled
// byte buffers, append-based encoders whose output is byte-identical to
// encoding/json, and the tokenizer that reads every request body and
// event stream (DESIGN.md §16).
//
// The rules of the game:
//
//   - Encoding is append-only into caller-owned []byte, usually one
//     recycled through GetBuf/PutBuf. Every encoder here mirrors the
//     exact byte output of encoding/json for the same value — including
//     HTML escaping, � replacement of invalid UTF-8, the float
//     formatting quirks, and the rejection of NaN/±Inf — so callers can
//     swap reflection marshals for these appenders without changing a
//     single response byte. Parity is enforced by fuzz + table tests in
//     the consuming packages.
//
//   - Decoding has one path: Dec's primitives decode keys, strings and
//     numbers to the values encoding/json gives them, and report
//     ok=false where the input leaves the grammar. encoding/json lives
//     on in the tests, here and in the consuming packages, as the oracle.
package jsonx

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// maxPooledBuf caps the capacity PutBuf will retain: a one-off giant
// response (a 1e5-placement plan) should not pin megabytes in the pool
// forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns a pooled byte buffer with length 0. Use the slice via
// (*p)[:0], store the grown slice back into *p, and return it with
// PutBuf when the encoded bytes have been fully consumed (written to the
// wire or copied) — never while anything still aliases them.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers are
// dropped so the pool's steady-state footprint stays bounded.
func PutBuf(p *[]byte) {
	if p == nil || cap(*p) > maxPooledBuf {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json emits verbatim inside a
// string when HTML escaping is on (the json.Marshal default): printable
// characters except ", \, <, > and &.
var htmlSafe = [utf8.RuneSelf]bool{}

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		htmlSafe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
}

// AppendString appends s as a JSON string, byte-identical to how
// json.Marshal encodes it: HTML-relevant characters escaped as \u00XX,
// control characters as the short escapes (or \u00XX), invalid UTF-8
// replaced with �, and U+2028/U+2029 escaped for JS embedding.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// This encodes bytes < 0x20 and the HTML set (<, >, &).
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f exactly as encoding/json renders a float64
// ('f' format in the human range, 'e' with a trimmed exponent outside
// it). ok is false for NaN and ±Inf, which json.Marshal rejects with
// an UnsupportedValueError — callers must surface an error, not emit.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-0X" to "e-X".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// AppendInt appends v in base 10.
func AppendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// AppendUint appends v in base 10.
func AppendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

// AppendBool appends the JSON boolean.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}
