package session

import (
	"context"
	"encoding/json"
	"fmt"

	"decor"
	"decor/internal/snap"
)

// Snapshot is the persistent form of a session: its spec plus the replay
// log of applied failure batches. Restoration replays the log against a
// freshly built field — every step is seeded and deterministic, so the
// restored session (coverage map, RNG position, delta ring, sequence
// number) is byte-for-byte the session that was evicted, and its future
// deltas are identical to the ones the unevicted session would have
// produced. That replay-equals-live property is exactly what the
// differential tests assert (DESIGN.md §14).
type Snapshot struct {
	Tenant string  `json:"tenant"`
	ID     string  `json:"field_id"`
	Spec   Spec    `json:"spec"`
	Events [][]int `json:"events,omitempty"`
	// Fast is the binary capture of the post-replay state — deployment
	// snapshot, sequence number, delta ring — letting restore skip the
	// O(events) replay loop (DESIGN.md §15). It is strictly an
	// accelerator: the replay log above stays authoritative, any decode
	// problem falls back to replaying Events, and the differential tests
	// pin fast-restored sessions byte-equal to replayed ones.
	Fast []byte `json:"fast,omitempty"`
}

// snapshot captures the session's persistent state. Live-only state (the
// subscriber set, the coverage map itself) is reconstructed on restore.
func (st *state) snapshot() []byte {
	b, err := json.Marshal(Snapshot{
		Tenant: st.tenant,
		ID:     st.id,
		Spec:   st.spec,
		Events: st.events,
		Fast:   st.fastState(),
	})
	if err != nil {
		// Spec and events are plain structs of finite numbers.
		panic(fmt.Sprintf("session: snapshot marshal: %v", err))
	}
	return b
}

// fastState seals the state a replay would otherwise recompute: the
// deployment (sensors + mid-stream RNG), the sequence number, and the
// delta ring that SSE catch-up reads depend on.
func (st *state) fastState() []byte {
	ringJS, err := json.Marshal(st.ring)
	if err != nil {
		panic(fmt.Sprintf("session: ring marshal: %v", err))
	}
	w := snap.NewWriter()
	w.Bytes(st.d.Snapshot())
	w.U64(st.seq)
	w.Bytes(ringJS)
	return w.Seal()
}

// restore rebuilds a session from its snapshot. With fast set and an
// intact Fast section it restores the deployment directly; otherwise it
// replays the event log — initial deploy, then every failure batch in
// order — against a fresh field. Either way the delta ring holds the
// same entries, so SSE catch-up reads spanning an evict/restore boundary
// see one seamless stream.
func restore(ctx context.Context, raw []byte, ringCap int, fast bool) (*state, error) {
	var sn Snapshot
	if err := json.Unmarshal(raw, &sn); err != nil {
		return nil, fmt.Errorf("session: corrupt snapshot: %w", err)
	}
	if fast && len(sn.Fast) > 0 {
		if st, err := restoreFast(sn, ringCap); err == nil {
			return st, nil
		}
		// The replay log is authoritative; a bad Fast section only costs
		// the replay below.
	}
	st, _, err := newState(ctx, sn.Tenant, sn.ID, sn.Spec, ringCap)
	if err != nil {
		return nil, fmt.Errorf("session: restore build: %w", err)
	}
	for i, failed := range sn.Events {
		if _, err := st.apply(ctx, dropRepeats(failed), ringCap); err != nil {
			return nil, fmt.Errorf("session: restore replay event %d: %w", i, err)
		}
	}
	return st, nil
}

// dropRepeats returns ids without its repeated entries, in first-seen
// order. Managers that predate the repeated-ID check on failure lists
// logged an event like [5, 5] as received; it destroyed sensor 5 once.
func dropRepeats(ids []int) []int {
	seen := make(map[int]bool, len(ids))
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// restoreFast decodes the Fast section. The sequence number must agree
// with the replay log's length — a snapshot whose cache and log disagree
// is rejected here and replayed instead.
func restoreFast(sn Snapshot, ringCap int) (*state, error) {
	r, err := snap.Open(sn.Fast)
	if err != nil {
		return nil, err
	}
	db := r.Bytes()
	seq := r.U64()
	ringJS := r.Bytes()
	if err := r.Close(); err != nil {
		return nil, err
	}
	if seq != uint64(len(sn.Events)) {
		return nil, fmt.Errorf("%w: fast seq %d over %d logged events",
			snap.ErrMalformed, seq, len(sn.Events))
	}
	d, err := decor.RestoreDeployment(db)
	if err != nil {
		return nil, err
	}
	var ring []Delta
	if len(ringJS) > 0 {
		if err := json.Unmarshal(ringJS, &ring); err != nil {
			return nil, fmt.Errorf("%w: fast ring: %v", snap.ErrMalformed, err)
		}
	}
	if ringCap > 0 && len(ring) > ringCap {
		ring = ring[len(ring)-ringCap:]
	}
	return &state{
		tenant: sn.Tenant,
		id:     sn.ID,
		spec:   sn.Spec,
		d:      d,
		events: sn.Events,
		seq:    seq,
		ring:   ring,
		subs:   map[int]chan Delta{},
	}, nil
}
