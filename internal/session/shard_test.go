package session

import "testing"

// TestShardSpreadSameLowBitKeys: FNV-1a's low hash bits depend only on
// the low bits of the key bytes, so field IDs that differ only above
// each byte's lowest two bits ("a-field", "e-field", "i-field", ... —
// like the "f0-…", "f4-…" IDs of a numbered fleet) must still spread
// over the shards.
func TestShardSpreadSameLowBitKeys(t *testing.T) {
	for _, tc := range []struct{ shards, want int }{{2, 2}, {4, 3}} {
		m := newTestManager(t, Config{Shards: tc.shards})
		used := map[*shardLoop]bool{}
		for c := 'a'; c <= 'z'; c += 4 {
			used[m.shardFor(skey("tenant", string(c)+"-field"))] = true
		}
		if len(used) < tc.want {
			t.Errorf("%d shards: same-low-bit keys use %d shards, want >= %d", tc.shards, len(used), tc.want)
		}
	}
}
