package chaos

import (
	"errors"
	"testing"

	"decor/internal/sim"
	"decor/internal/snap"
)

// realCheckpoint produces a genuine mid-run checkpoint for the fuzz seed
// corpus: the interesting byte layout is the real one, and the committed
// corpus under testdata/fuzz covers the envelope-violation classes.
func realCheckpoint(tb testing.TB, arch string) []byte {
	tb.Helper()
	var data []byte
	_ = RunCheckpointed(DefaultScenario(arch, 1), 5, func(_ sim.Time, d []byte) {
		if data == nil {
			data = d
		}
	})
	if data == nil {
		tb.Fatalf("%s: no checkpoint emitted", arch)
	}
	return data
}

// FuzzSnapshotRoundTrip drives arbitrary bytes — seeded with real
// checkpoints of every architecture and their corrupted, truncated and
// version-bumped variants — through Resume. The contract: Resume either
// rejects with a typed snap error or completes a valid run; it never
// panics, and an accepted record yields a structurally complete
// verdict.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, arch := range Archs() {
		real := realCheckpoint(f, arch)
		f.Add(real)
		f.Add(real[:len(real)/2]) // truncated
		f.Add(real[:4])           // magic only
		bumped := append([]byte(nil), real...)
		bumped[4]++
		f.Add(bumped) // future version
		flipped := append([]byte(nil), real...)
		flipped[len(flipped)/3] ^= 0x80
		f.Add(flipped) // corrupted body
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Resume(data, 0, nil)
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
		// Accepted: the resumed run must have completed.
		switch v.Arch {
		case ArchGrid, ArchVoronoi, ArchSelfheal:
		default:
			t.Fatalf("accepted snapshot with bogus arch %q", v.Arch)
		}
		if v.TraceHash == "" {
			t.Fatal("accepted snapshot produced no trace hash")
		}
	})
}
