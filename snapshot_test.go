package decor

import (
	"bytes"
	"errors"
	"testing"

	"decor/internal/snap"
)

// deployedSnapshot is the snapshot of a deployed field that has lost
// some of its sensors: parameters, a mid-stream RNG and per-sensor radii
// with gaps in the IDs.
func deployedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	d, err := NewDeployment(quickParams(2))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := d.Deploy("voronoi-big"); err != nil {
		tb.Fatal(err)
	}
	if len(d.FailRandom(0.2)) == 0 {
		tb.Fatal("no sensor failed")
	}
	return d.Snapshot()
}

// resealWithK reads a deployment snapshot field by field and seals it
// again with K replaced: an intact envelope around parameters that
// NewDeployment refuses.
func resealWithK(tb testing.TB, data []byte, k int) []byte {
	tb.Helper()
	r, err := snap.Open(data)
	if err != nil {
		tb.Fatal(err)
	}
	w := snap.NewWriter()
	w.F64(r.F64()) // field side
	r.Int()
	w.Int(k)
	w.F64(r.F64()) // rs
	w.F64(r.F64()) // rc
	w.Int(r.Int()) // points
	w.Str(r.Str()) // generator
	w.U64(r.U64()) // seed
	w.U64(r.U64()) // rng state
	w.U64(r.U64())
	n := r.CollectionLen()
	w.Int(n)
	for ; n > 0; n-- {
		w.Int(r.Int())
		w.F64(r.F64())
		w.F64(r.F64())
		w.F64(r.F64())
	}
	if err := r.Close(); err != nil {
		tb.Fatal(err)
	}
	return w.Seal()
}

// FuzzRestoreDeployment drives arbitrary bytes — seeded with a deployed
// field's snapshot and its truncated, magic-only, version-bumped,
// bit-flipped and K = 0 variants — through RestoreDeployment, the reader
// of `decor-sim -resume-from` files. The contract: it never panics,
// every rejection wraps one of snap's typed errors, and an accepted
// record restores a deployment whose own snapshot restores to the same
// bytes.
func FuzzRestoreDeployment(f *testing.F) {
	base := deployedSnapshot(f)
	if !bytes.Equal(resealWithK(f, base, quickParams(2).K), base) {
		f.Fatal("resealing the unaltered snapshot changed its bytes")
	}
	f.Add(base)
	f.Add(base[:len(base)/2]) // truncated
	f.Add(base[:4])           // magic only
	bumped := append([]byte(nil), base...)
	bumped[4]++
	f.Add(bumped) // future version
	flipped := append([]byte(nil), base...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)                 // corrupted body
	f.Add(resealWithK(f, base, 0)) // sealed, but K = 0

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := RestoreDeployment(data)
		if err != nil {
			for _, typed := range []error{
				snap.ErrMagic, snap.ErrVersion, snap.ErrCorrupt,
				snap.ErrTruncated, snap.ErrMalformed,
			} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped rejection: %v", err)
		}
		again := d.Snapshot()
		d2, err := RestoreDeployment(again)
		if err != nil {
			t.Fatalf("an accepted record's own snapshot is refused: %v", err)
		}
		if !bytes.Equal(d2.Snapshot(), again) {
			t.Fatal("an accepted record's own snapshot restores to different bytes")
		}
	})
}
