package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// TestFastRestoreMatchesReplay is the fast path's differential oracle:
// restoring a snapshot via the binary fast section and via full event
// replay must yield sessions with identical persistent state, identical
// rings, and byte-identical future deltas.
func TestFastRestoreMatchesReplay(t *testing.T) {
	ctx := context.Background()
	st, _, err := newState(ctx, "t", "f", testSpec(3), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range [][]int{{1}, {6, 13}, {0, 9}, {17}} {
		if _, err := st.apply(ctx, ev, 64); err != nil {
			t.Fatal(err)
		}
	}
	raw := st.snapshot()

	fast, err := restore(ctx, raw, 64, true)
	if err != nil {
		t.Fatalf("fast restore: %v", err)
	}
	replayed, err := restore(ctx, raw, 64, false)
	if err != nil {
		t.Fatalf("replay restore: %v", err)
	}
	if fast.seq != replayed.seq || fast.seq != st.seq {
		t.Fatalf("seq: fast %d, replayed %d, live %d", fast.seq, replayed.seq, st.seq)
	}
	fr := mustJSON(t, fast.ring)
	rr := mustJSON(t, replayed.ring)
	if !bytes.Equal(fr, rr) {
		t.Errorf("rings differ:\nfast:     %s\nreplayed: %s", fr, rr)
	}
	// The decisive check: both continue identically, which only holds if
	// the fast path restored the deployment's RNG mid-stream.
	for _, s := range []*state{st, fast, replayed} {
		if _, err := s.apply(ctx, []int{4, 2}, 64); err != nil {
			t.Fatal(err)
		}
	}
	live := mustJSON(t, st.ring[len(st.ring)-1])
	f := mustJSON(t, fast.ring[len(fast.ring)-1])
	r := mustJSON(t, replayed.ring[len(replayed.ring)-1])
	if !bytes.Equal(live, f) || !bytes.Equal(live, r) {
		t.Errorf("post-restore deltas diverged:\nlive:     %s\nfast:     %s\nreplayed: %s", live, f, r)
	}
}

// TestFastRestoreFallsBackOnCorruption: a damaged (or stale) fast
// section must never fail the restore — the replay log is authoritative
// and the fall-back reproduces the session exactly.
func TestFastRestoreFallsBackOnCorruption(t *testing.T) {
	ctx := context.Background()
	st, _, err := newState(ctx, "t", "f", testSpec(4), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.apply(ctx, []int{2, 8}, 64); err != nil {
		t.Fatal(err)
	}
	var sn Snapshot
	if err := json.Unmarshal(st.snapshot(), &sn); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, st.ring)

	corrupt := func(name string, mutate func(*Snapshot)) {
		c := sn
		c.Fast = append([]byte(nil), sn.Fast...)
		mutate(&c)
		got, err := restore(ctx, mustJSON(t, c), 64, true)
		if err != nil {
			t.Fatalf("%s: fall-back restore failed: %v", name, err)
		}
		if g := mustJSON(t, got.ring); !bytes.Equal(g, want) {
			t.Errorf("%s: fall-back ring differs:\n%s\nvs\n%s", name, g, want)
		}
	}
	corrupt("bit flip", func(c *Snapshot) { c.Fast[len(c.Fast)/2] ^= 0x40 })
	corrupt("truncated", func(c *Snapshot) { c.Fast = c.Fast[:len(c.Fast)/3] })

	// A fast section whose sequence number disagrees with the replay log
	// is rejected even though it decodes cleanly: the log is the truth,
	// so the restored session reflects the (shortened) log, not the cache.
	stale := sn
	stale.Events = nil
	got, err := restore(ctx, mustJSON(t, stale), 64, true)
	if err != nil {
		t.Fatalf("stale seq: fall-back restore failed: %v", err)
	}
	if got.seq != 0 {
		t.Errorf("stale seq: restored seq %d from a cache the log disowns", got.seq)
	}
}

// TestSessionMigrationDeltaParity is the shard-to-shard migration gate
// (run in `make session-smoke`): apply events on manager A, Export,
// Import into manager B, keep applying — the combined delta stream must
// be byte-equal to a never-migrated session's.
func TestSessionMigrationDeltaParity(t *testing.T) {
	events := [][]int{{1}, {6, 13}, {0, 9}, {17}, {4, 2}}
	const cut = 3 // migrate after the first three events

	apply := func(m *Manager, buf *bytes.Buffer, evs [][]int) {
		t.Helper()
		for _, ev := range evs {
			d, err := m.Apply("t", "f", ev)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(mustJSON(t, d))
		}
	}

	// Control: one manager, never migrated.
	control := newTestManager(t, Config{})
	var want bytes.Buffer
	_, initial, err := control.Create("t", "f", testSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	want.Write(mustJSON(t, initial))
	apply(control, &want, events)

	// Migrated: A takes the first events, B finishes. Shard counts
	// differ on purpose — the stream must not care where the field runs.
	a := newTestManager(t, Config{Shards: 1})
	b := newTestManager(t, Config{Shards: 4})
	var got bytes.Buffer
	if _, initial, err = a.Create("t", "f", testSpec(5)); err != nil {
		t.Fatal(err)
	}
	got.Write(mustJSON(t, initial))
	apply(a, &got, events[:cut])

	blob, err := a.Export("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("t", "f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("exported session still on A: %v", err)
	}
	if st := a.Stats(); st.Sessions != 0 {
		t.Errorf("A still accounts %d sessions after export", st.Sessions)
	}
	if err := b.Import("t", blob); err != nil {
		t.Fatal(err)
	}
	if info, err := b.Get("t", "f"); err != nil || !info.Evicted || info.Seq != cut {
		t.Fatalf("imported info = %+v, err %v", info, err)
	}
	apply(b, &got, events[cut:])

	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("migrated delta stream diverged:\n%s\nvs\n%s", &got, &want)
	}

	// The same migration with fast restore disabled on the importer —
	// the replay oracle — must produce the same stream too.
	c := newTestManager(t, Config{})
	c.replayRestore = true
	var slow bytes.Buffer
	if err := c.Import("t", blob); err != nil {
		t.Fatal(err)
	}
	apply(c, &slow, events[cut:])
	if !bytes.Equal(got.Bytes()[got.Len()-slow.Len():], slow.Bytes()) {
		t.Error("replay-restored import diverged from fast-restored import")
	}
}

// TestExportImportGuards: exporting under subscribers is refused,
// importing a foreign tenant's snapshot is refused, importing over an
// existing field is refused, and quotas move with the session.
func TestExportImportGuards(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, _, err := m.Create("t", "f", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	_, cancel, err := m.Subscribe("t", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Export("t", "f"); !errors.Is(err, ErrSubscribed) {
		t.Errorf("export under subscriber: %v", err)
	}
	cancel()
	blob, err := m.Export("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Import("rival", blob); !errors.Is(err, ErrTenantMismatch) {
		t.Errorf("cross-tenant import: %v", err)
	}
	if err := m.Import("t", []byte("not json")); err == nil {
		t.Error("corrupt import accepted")
	}
	if err := m.Import("t", blob); err != nil {
		t.Fatal(err)
	}
	if err := m.Import("t", blob); !errors.Is(err, ErrExists) {
		t.Errorf("double import: %v", err)
	}
	// An imported session sits in evicted form; exporting it again hands
	// back the stored snapshot verbatim.
	blob2, err := m.Export("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Error("evicted-session export differs from its snapshot")
	}
	if st := m.Stats(); st.Sessions != 0 {
		t.Errorf("stats after final export = %+v, want 0 sessions", st)
	}
}
