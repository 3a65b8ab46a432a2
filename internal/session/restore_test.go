package session

import (
	"bytes"
	"context"
	"encoding/json"

	"testing"
)

// TestFastRestoreMatchesReplay is the fast path's differential oracle:
// restoring a snapshot via the binary fast section and via full event
// replay (the same snapshot without its fast section) must yield sessions with identical persistent state, identical
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

	fast, err := restore(ctx, raw, 64)
	if err != nil {
		t.Fatalf("fast restore: %v", err)
	}
	var sn Snapshot
	if err := json.Unmarshal(raw, &sn); err != nil {
		t.Fatal(err)
	}
	sn.Fast = nil
	replayed, err := restore(ctx, mustJSON(t, sn), 64)
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
		got, err := restore(ctx, mustJSON(t, c), 64)
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
	got, err := restore(ctx, mustJSON(t, stale), 64)
	if err != nil {
		t.Fatalf("stale seq: fall-back restore failed: %v", err)
	}
	if got.seq != 0 {
		t.Errorf("stale seq: restored seq %d from a cache the log disowns", got.seq)
	}
}
