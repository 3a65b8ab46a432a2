package session

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"decor/internal/snap"
)

// replay is the restore oracle: it builds the spec's field as tenant "t"
// and field "f", runs the initial deploy, and applies every event in
// order, exactly as a live session that was never evicted would.
func replay(t *testing.T, spec Spec, events [][]int) *state {
	t.Helper()
	ctx := context.Background()
	st, _, err := newState(ctx, "t", "f", spec, ringDeltas)
	if err != nil {
		t.Fatalf("replay build: %v", err)
	}
	for i, ev := range events {
		if _, err := st.apply(ctx, ev, ringDeltas); err != nil {
			t.Fatalf("replay event %d: %v", i, err)
		}
	}
	return st
}

// sameSession byte-compares two sessions' sequence numbers, rings and
// next deltas for the event next, which they both apply. The next deltas
// match only if the deployment's RNG resumed mid-stream.
func sameSession(t *testing.T, got, want *state, next []int) {
	t.Helper()
	if got.tenant != want.tenant || got.id != want.id || got.method != want.method || got.seq != want.seq {
		t.Fatalf("session %s/%s %s seq %d, want %s/%s %s seq %d",
			got.tenant, got.id, got.method, got.seq, want.tenant, want.id, want.method, want.seq)
	}
	// DeepEqual tells a nil Failed from an empty one, which JSON omits
	// alike; the bytes tell -0 from 0.
	if g, w := mustJSON(t, got.ring), mustJSON(t, want.ring); !bytes.Equal(g, w) || !reflect.DeepEqual(got.ring, want.ring) {
		t.Fatalf("rings differ:\ngot:  %s\nwant: %s", g, w)
	}
	ctx := context.Background()
	gd, err := got.apply(ctx, next, ringDeltas)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := want.apply(ctx, next, ringDeltas)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, gd), mustJSON(t, wd); !bytes.Equal(g, w) {
		t.Fatalf("next deltas differ:\ngot:  %s\nwant: %s", g, w)
	}
}

// TestRestoreMatchesReplay: a session restored from its record equals
// the replay of its spec and events, on seq, ring and next delta: at
// Seq 0, mid-stream, and once the ring has dropped its oldest deltas.
func TestRestoreMatchesReplay(t *testing.T) {
	spec := testSpec(3)
	// Each wrapped event fails the newest sensor.
	wrap := replay(t, spec, nil)
	var wrapped [][]int
	for len(wrapped) < ringDeltas+8 {
		wrapped = append(wrapped, []int{newest(wrap)})
		if _, err := wrap.apply(context.Background(), wrapped[len(wrapped)-1], ringDeltas); err != nil {
			t.Fatal(err)
		}
	}
	if wrap.ring[0].Seq == 0 {
		t.Fatal("the ring still holds Seq 0: the wrapped case proves nothing")
	}
	for _, events := range [][][]int{nil, {{1}, {6, 13}, {0, 9}, {17}}, wrapped} {
		restored, err := restore(replay(t, spec, events).snapshot())
		if err != nil {
			t.Fatalf("%d events: restore: %v", len(events), err)
		}
		want := replay(t, spec, events)
		sameSession(t, restored, want, []int{newest(want)})
	}
}

// newest is the largest live sensor ID: the last sensor a repair placed.
func newest(st *state) int {
	s := st.d.Sensors()
	return s[len(s)-1].ID
}

// TestDamagedRecordFailsRestore: a bit flip or a truncation in a record
// is a restore error, never a session.
func TestDamagedRecordFailsRestore(t *testing.T) {
	raw := replay(t, testSpec(4), [][]int{{2, 8}}).snapshot()
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	for name, damaged := range map[string][]byte{"bit flip": flipped, "truncated": raw[:len(raw)/3]} {
		if st, err := restore(damaged); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: restored a session: %t, err %v; want snap.ErrCorrupt", name, st != nil, err)
		}
	}
}

// TestDamagedEvictedRecordIsErrRestore: an event on an evicted session
// whose record was damaged fails with ErrRestore, wrapping the record's
// own error, so the service can answer it as the server fault it is.
func TestDamagedEvictedRecordIsErrRestore(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, _, err := m.Create("t", "f", testSpec(4)); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict("t", "f"); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	f := m.fields[skey("t", "f")]
	m.mu.Unlock()
	f.mu.Lock()
	f.snap[len(f.snap)/2] ^= 0x40
	f.mu.Unlock()
	if _, err := m.Apply("t", "f", []int{2}); !errors.Is(err, ErrRestore) || !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("event on a damaged record: err %v; want ErrRestore wrapping snap.ErrCorrupt", err)
	}
}

// TestSessionStateBoundedByField: a session's memory and its record are
// bounded by its field, not by the events it has applied. A paper-scale
// field (side 100, k 3, 2000 points, 200 scattered) takes 1e5 events,
// each failing the three newest sensors, with a full-size ring.
func TestSessionStateBoundedByField(t *testing.T) {
	spec := Spec{
		FieldSide: 100, K: 3, Rs: 4, NumPoints: 2000,
		Generator: "halton", Seed: 1, Scatter: 200, Method: "centralized",
	}
	b := newBenchSession(t, spec, ringDeltas)
	created := len(b.st.snapshot())
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < 100_000; i++ {
		b.step(t)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	grown := int64(ms.HeapAlloc) - int64(before)
	evicted := len(b.st.snapshot())
	t.Logf("heap grew %d B over 1e5 events; record %d B at create, %d B after", grown, created, evicted)
	if grown >= 1<<20 {
		t.Errorf("heap grew %d B over 1e5 events, want under 1 MB", grown)
	}
	if evicted > 2*created {
		t.Errorf("record grew from %d B at create to %d B, want at most twice", created, evicted)
	}
	runtime.KeepAlive(b)
}
