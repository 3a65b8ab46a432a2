package snap

import (
	"errors"
	"math"
	"testing"
)

// roundTrip writes one of every field type and seals.
func roundTrip() []byte {
	w := NewWriter()
	w.Int(-42)
	w.Int(0)
	w.Uvarint(1 << 40)
	w.U64(0xdeadbeefcafef00d)
	w.F64(3.14159)
	w.F64(math.Copysign(0, -1))
	w.Bool(true)
	w.Bool(false)
	w.Str("hello")
	w.Bytes([]byte{1, 2, 3})
	return w.Seal()
}

func TestRoundTrip(t *testing.T) {
	r, err := Open(roundTrip())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Int(); got != 0 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %x", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 -0 = %v", got)
	}
	if got := r.Bool(); !got {
		t.Errorf("Bool = %v", got)
	}
	if got := r.Bool(); got {
		t.Errorf("Bool = %v", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Bytes(); len(got) != 3 || got[0] != 1 {
		t.Errorf("Bytes = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	a, b := roundTrip(), roundTrip()
	if string(a) != string(b) {
		t.Error("identical writes produced different snapshots")
	}
}

func TestOpenRejectsEnvelope(t *testing.T) {
	good := roundTrip()

	if _, err := Open(nil); !errors.Is(err, ErrMagic) {
		t.Errorf("nil: %v", err)
	}
	if _, err := Open([]byte("not a snapshot at all, but long enough to pass size checks......")); !errors.Is(err, ErrMagic) {
		t.Errorf("garbage: %v", err)
	}
	if _, err := Open(good[:8]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}

	bumped := append([]byte(nil), good...)
	bumped[4] = Version + 1
	if _, err := Open(bumped); !errors.Is(err, ErrVersion) {
		t.Errorf("version bump: %v", err)
	}

	// Flip one body byte: checksum must catch it.
	flipped := append([]byte(nil), good...)
	flipped[10] ^= 0x40
	if _, err := Open(flipped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip: %v", err)
	}

	// Truncating the tail breaks the checksum too (the sum bytes shift).
	cut := good[:len(good)-5]
	if _, err := Open(cut); err == nil {
		t.Error("tail cut accepted")
	}
}

func TestReaderStickyError(t *testing.T) {
	w := NewWriter()
	w.Int(5)
	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Int(); got != 5 {
		t.Fatalf("Int = %d", got)
	}
	// Past the end: everything zeroes and Close reports truncation.
	if got := r.U64(); got != 0 {
		t.Errorf("U64 past end = %d", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("Str past end = %q", got)
	}
	if err := r.Close(); !errors.Is(err, ErrTruncated) {
		t.Errorf("Close: %v", err)
	}
}

func TestCollectionLenBounds(t *testing.T) {
	w := NewWriter()
	w.Int(1 << 40) // a "length" far larger than the body
	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if n := r.CollectionLen(); n != 0 {
		t.Errorf("CollectionLen = %d", n)
	}
	if err := r.Close(); !errors.Is(err, ErrMalformed) {
		t.Errorf("Close: %v", err)
	}

	w = NewWriter()
	w.Int(-3)
	r, err = Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if n := r.CollectionLen(); n != 0 {
		t.Errorf("negative CollectionLen = %d", n)
	}
	if err := r.Close(); !errors.Is(err, ErrMalformed) {
		t.Errorf("Close: %v", err)
	}
}

func TestCloseRejectsTrailingGarbage(t *testing.T) {
	w := NewWriter()
	w.Int(1)
	w.Int(2)
	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Int(); got != 1 {
		t.Fatalf("Int = %d", got)
	}
	if err := r.Close(); !errors.Is(err, ErrMalformed) {
		t.Errorf("Close with undecoded bytes: %v", err)
	}
}
