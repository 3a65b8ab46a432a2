// Package snap is the versioned binary snapshot codec shared by every
// sealed record in the tree (the decor facade's deployment snapshots
// and the session records that carry them). The format is deliberately dumb
// — varint integers, IEEE-754 float bits, length-prefixed byte strings
// — because determinism is the whole point: the same state always
// encodes to the same bytes, and decoding never allocates
// proportionally to attacker-controlled lengths.
//
// A sealed snapshot is
//
//	magic "DSNP" | version byte | body | SHA-256(magic|version|body)
//
// and Open rejects anything else with a typed error (ErrMagic,
// ErrVersion, ErrTruncated, ErrCorrupt) — never a panic, never a silent
// partial restore. Decoders drain a Reader and then call Close, which
// surfaces any mid-stream truncation plus trailing garbage;
// FuzzRestoreDeployment in the decor package drives arbitrary
// corruptions through this contract.
package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
)

// Typed decode failures. Everything Open and Reader can report wraps one
// of these, so callers (and tests) can classify rejections.
var (
	// ErrMagic: the bytes are not a snapshot at all.
	ErrMagic = errors.New("snap: bad magic, not a snapshot")
	// ErrVersion: a snapshot from an unknown format version.
	ErrVersion = errors.New("snap: unsupported snapshot version")
	// ErrCorrupt: checksum mismatch — the body was altered.
	ErrCorrupt = errors.New("snap: checksum mismatch, snapshot corrupt")
	// ErrTruncated: a read ran past the end of the body.
	ErrTruncated = errors.New("snap: truncated snapshot")
	// ErrMalformed: a structurally impossible field (negative length,
	// collection longer than the remaining bytes, trailing garbage).
	ErrMalformed = errors.New("snap: malformed snapshot field")
)

const (
	magic = "DSNP"
	// Version is the current snapshot format version. Decoders accept
	// exactly this version: the format carries full state, so there is
	// nothing sensible to do with a partially understood snapshot.
	Version  = 1
	sumLen   = sha256.Size
	headLen  = len(magic) + 1
	minTotal = headLen + sumLen
)

// Writer accumulates a snapshot body. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// U64 appends a fixed-width little-endian uint64 (RNG states, seeds).
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// F64 appends the IEEE-754 bits of v — exact, including -0 and NaN
// payloads, so restored floats are bit-identical.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Seal wraps the body in the snapshot envelope — magic, version,
// checksum — and returns the complete snapshot. The Writer may keep
// accumulating afterwards, but the returned slice is independent.
func (w *Writer) Seal() []byte {
	out := make([]byte, 0, headLen+len(w.buf)+sumLen)
	out = append(out, magic...)
	out = append(out, Version)
	out = append(out, w.buf...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Reader decodes a snapshot body with a sticky error: after the first
// failure every accessor returns a zero value and Err/Close report the
// original cause, so decoders can run straight-line without checking
// every read.
type Reader struct {
	buf []byte
	off int
	err error
}

// Open verifies the envelope (magic, version, checksum) and returns a
// Reader positioned at the body start.
func Open(data []byte) (*Reader, error) {
	if len(data) < minTotal {
		if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
			return nil, ErrTruncated
		}
		return nil, ErrMagic
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrMagic
	}
	if data[len(magic)] != Version {
		return nil, ErrVersion
	}
	body, tail := data[:len(data)-sumLen], data[len(data)-sumLen:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(tail) {
		return nil, ErrCorrupt
	}
	return &Reader{buf: body[headLen:]}, nil
}

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Close finishes a decode: it returns the sticky error, or ErrMalformed
// if undecoded bytes remain (a snapshot is a closed record, not a
// stream).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return ErrMalformed
	}
	return nil
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Int decodes an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// CollectionLen decodes a collection length and validates it against the
// remaining bytes (each element costs at least one byte), so a corrupted
// length can never drive a huge allocation or a long spin.
func (r *Reader) CollectionLen() int {
	n := r.Varint()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64(r.Remaining()) {
		r.fail(ErrMalformed)
		return 0
	}
	return int(n)
}

// U64 decodes a fixed-width uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// F64 decodes IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool decodes one byte as a bool, rejecting values other than 0/1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if r.err != nil {
		return false
	}
	if b > 1 {
		r.fail(ErrMalformed)
		return false
	}
	return b == 1
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bytes decodes a length-prefixed byte string (copied: the result does
// not alias the snapshot buffer).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out
}

// Str decodes a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }
