package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"decor/internal/admit"
	"decor/internal/obs"
)

// testSpec is a small, fast field: the centralized planner restores it
// in a few milliseconds. Scattered sensors take IDs 0..scatter-1.
func testSpec(seed uint64) Spec {
	return Spec{
		FieldSide: 30,
		K:         1,
		Rs:        4,
		NumPoints: 200,
		Generator: "halton",
		Seed:      seed,
		Scatter:   20,
		Method:    "centralized",
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

// mustJSON marshals a delta to its canonical wire bytes.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// An event naming one sensor twice is rejected like an unknown ID: the
// session stays as it was, and the same sensor can still fail in a
// later, valid event.
func TestRepeatedFailedIDRejected(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, _, err := m.Create("t", "f", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply("t", "f", []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	if d, err := m.Apply("t", "f", []int{5, 5}); err == nil {
		t.Fatalf("repeated sensor id accepted: delta %+v", d)
	}
	if got, err := m.Get("t", "f"); err != nil || got.Seq != 1 {
		t.Fatalf("after the rejected event: info = %+v, err %v", got, err)
	}
	d, err := m.Apply("t", "f", []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != 2 || !reflect.DeepEqual(d.Failed, []int{5}) {
		t.Fatalf("delta after the rejected event = %+v", d)
	}
	if err := m.Evict("t", "f"); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(m.fields[skey("t", "f")].snap)
	if err != nil {
		t.Fatal(err)
	}
	want := replay(t, testSpec(1), [][]int{{0, 3}, {5}})
	sameSession(t, restored, want, []int{newest(want)})
}

func TestSessionLifecycle(t *testing.T) {
	m := newTestManager(t, Config{})
	info, initial, err := m.Create("acme", "field-1", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.FieldID != "field-1" || info.Tenant != "acme" || info.Seq != 0 {
		t.Errorf("create info = %+v", info)
	}
	if !initial.Covered || initial.Seq != 0 || initial.Placed != len(initial.Placements) {
		t.Errorf("initial delta = %+v", initial)
	}

	// A failure event yields an incremental repair that restores coverage.
	d1, err := m.Apply("acme", "field-1", []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Seq != 1 || !reflect.DeepEqual(d1.Failed, []int{0, 3}) || !d1.Covered {
		t.Errorf("delta 1 = %+v", d1)
	}

	// Unknown sensor IDs are rejected atomically: the session is unchanged.
	if _, err := m.Apply("acme", "field-1", []int{99999}); err == nil {
		t.Error("unknown sensor id accepted")
	}
	if _, err := m.Apply("acme", "field-1", nil); err == nil {
		t.Error("empty event accepted")
	}
	got, err := m.Get("acme", "field-1")
	if err != nil || got.Seq != 1 {
		t.Errorf("after rejected events: info = %+v, err %v", got, err)
	}

	// Duplicate create, unknown field, cross-tenant access.
	if _, _, err := m.Create("acme", "field-1", testSpec(1)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create err = %v", err)
	}
	if _, err := m.Apply("acme", "nope", []int{1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown field err = %v", err)
	}
	if _, err := m.Apply("rival", "field-1", []int{1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("cross-tenant apply must look like not-found, got %v", err)
	}
	if _, err := m.Get("rival", "field-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cross-tenant get must look like not-found, got %v", err)
	}

	if err := m.Drop("acme", "field-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("acme", "field-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("dropped field still visible: %v", err)
	}
}

// TestDeltaStreamDeterminism: a session's delta stream is the same
// bytes across identical runs, and whether it runs alone or while other
// sessions on the same manager take events concurrently.
func TestDeltaStreamDeterminism(t *testing.T) {
	events := [][]int{{0}, {4, 7}, {1}, {12, 2, 19}, {5}}
	stream := func(m *Manager) []byte {
		var buf bytes.Buffer
		_, initial, err := m.Create("t", "f", testSpec(9))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(mustJSON(t, initial))
		for _, ev := range events {
			d, err := m.Apply("t", "f", ev)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(mustJSON(t, d))
		}
		return buf.Bytes()
	}
	alone, again := stream(newTestManager(t, Config{})), stream(newTestManager(t, Config{}))

	// Four other fields fail their scattered sensors one by one, from
	// before the stream starts until it is done.
	m := newTestManager(t, Config{})
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("other-%d", i)
		spec := testSpec(uint64(20 + i))
		spec.Scatter = 200
		if _, _, err := m.Create("t", id, spec); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < spec.Scatter; s++ {
				if _, err := m.Apply("t", id, []int{s}); err != nil {
					t.Errorf("%s: %v", id, err)
				}
				if s == 0 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	busy := stream(m)
	close(stop)
	wg.Wait()
	if !bytes.Equal(alone, again) {
		t.Error("delta stream differs across identical runs")
	}
	if !bytes.Equal(alone, busy) {
		t.Error("delta stream differs when other fields take events concurrently")
	}
}

// TestBusyFieldBlocksOnlyItself: while one field's lock is held, as
// during a long repair, Apply, Get and Subscribe on another field
// complete, and a call on the held field waits for it.
func TestBusyFieldBlocksOnlyItself(t *testing.T) {
	m := newTestManager(t, Config{})
	for _, id := range []string{"a", "b"} {
		if _, _, err := m.Create("t", id, testSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	held := m.fields[skey("t", "a")]
	held.mu.Lock()
	waiting := make(chan error, 1)
	go func() {
		_, err := m.Apply("t", "a", []int{1})
		waiting <- err
	}()

	done := make(chan error, 1)
	go func() {
		if _, err := m.Apply("t", "b", []int{1}); err != nil {
			done <- err
			return
		}
		if _, err := m.Get("t", "b"); err != nil {
			done <- err
			return
		}
		ch, cancel, err := m.Subscribe("t", "b", 1)
		if err == nil {
			<-ch
			cancel()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("calls on field b waited for field a's lock")
	}
	select {
	case err := <-waiting:
		t.Errorf("apply on the held field returned while its lock was held: %v", err)
	default:
	}
	held.mu.Unlock()
	if err := <-waiting; err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionBoundSaturates: with every admission of the gate held, as
// by calls waiting for busy fields, the next call on any field gets
// ErrSaturated, and calls admit again once the bound has room. A
// subscriber's cancel needs no admission, so one made past the bound
// still detaches it and leaves its field evictable.
func TestAdmissionBoundSaturates(t *testing.T) {
	m, g := newTestManager(t, Config{}), admit.New(1)
	m.gate = g
	if _, _, err := m.Create("t", "b", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	_, cancel, err := m.Subscribe("t", "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	leave := fill(g, "")
	if _, err := m.Apply("t", "b", []int{1}); !errors.Is(err, ErrSaturated) {
		t.Errorf("apply past the bound: err = %v, want ErrSaturated", err)
	}
	if _, err := m.Get("t", "b"); !errors.Is(err, ErrSaturated) {
		t.Errorf("get past the bound: err = %v, want ErrSaturated", err)
	}
	if _, _, err := m.Create("t", "c", testSpec(2)); !errors.Is(err, ErrSaturated) {
		t.Errorf("create past the bound: err = %v, want ErrSaturated", err)
	}
	if n := m.sessionCount(); n != 1 {
		t.Errorf("%d sessions after a refused create, want 1", n)
	}
	cancel()
	leave()
	if _, err := m.Apply("t", "b", []int{1}); err != nil {
		t.Errorf("apply after the bound freed: %v", err)
	}
	if err := m.Evict("t", "b"); err != nil {
		t.Errorf("evict after a cancel made past the bound: %v", err)
	}
}

// fill admits calls for tenant until g refuses one, as calls waiting for
// busy fields would, and returns the function that lets them leave.
func fill(g *admit.Gate, tenant string) (leave func()) {
	n := 0
	for g.Enter(tenant) == nil {
		n++
	}
	return func() {
		for ; n > 0; n-- {
			g.Leave(tenant)
		}
	}
}

// sessionCount reads the live+evicted session total.
func (m *Manager) sessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// TestDifferentialReplayParity is the delta-repair correctness gate: at
// every step, the session's cumulative state and latest delta must be
// byte-identical to a stateless full replan — a fresh deployment built
// from the spec that replays the whole event history from scratch.
func TestDifferentialReplayParity(t *testing.T) {
	m := newTestManager(t, Config{})
	spec := testSpec(3)
	_, initial, err := m.Create("t", "f", spec)
	if err != nil {
		t.Fatal(err)
	}

	events := [][]int{{2}, {8, 11}, {0}, {15, 6}, {3, 18, 9}}
	applied := [][]int{}
	for step, ev := range events {
		d, err := m.Apply("t", "f", ev)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		applied = append(applied, ev)

		// Stateless full replan: rebuild everything from the spec and
		// replay the full history.
		fresh := replay(t, spec, applied)
		want := fresh.ring[len(fresh.ring)-1]
		if !bytes.Equal(mustJSON(t, d), mustJSON(t, want)) {
			t.Fatalf("step %d: session delta diverged from stateless replan\nsession: %s\nreplan:  %s",
				step, mustJSON(t, d), mustJSON(t, want))
		}
		if step == 0 {
			// The replay's Seq-0 delta equals the session's initial plan.
			if !bytes.Equal(mustJSON(t, initial), mustJSON(t, fresh.ring[0])) {
				t.Error("initial plan diverged from replay seq 0")
			}
		}

		// Full cumulative state parity: identical sensor sets.
		live, err := m.Get("t", "f")
		if err != nil {
			t.Fatal(err)
		}
		if live.TotalSensors != fresh.d.NumSensors() {
			t.Fatalf("step %d: sensors %d vs replan %d", step, live.TotalSensors, fresh.d.NumSensors())
		}
	}
}

// TestEvictRestoreDeterminism: evicting and restoring mid-stream must
// not change a single byte of the delta stream.
func TestEvictRestoreDeterminism(t *testing.T) {
	events := [][]int{{1}, {6, 13}, {0, 9}, {17}, {4, 2}}
	run := func(evictAfter map[int]bool) []byte {
		reg := obs.NewRegistry()
		m := newTestManager(t, Config{Registry: reg})
		var buf bytes.Buffer
		_, initial, err := m.Create("t", "f", testSpec(5))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(mustJSON(t, initial))
		for i, ev := range events {
			d, err := m.Apply("t", "f", ev)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(mustJSON(t, d))
			if evictAfter[i] {
				if err := m.Evict("t", "f"); err != nil {
					t.Fatal(err)
				}
				if info, err := m.Get("t", "f"); err != nil || !info.Evicted {
					t.Fatalf("expected evicted info, got %+v err %v", info, err)
				}
			}
		}
		return buf.Bytes()
	}
	straight := run(nil)
	interrupted := run(map[int]bool{0: true, 2: true, 3: true})
	if !bytes.Equal(straight, interrupted) {
		t.Error("evict/restore changed the delta stream")
	}
}

// TestEvictedGetReportsTheField: Get on an evicted session reports the
// field as it was sealed, so whether the field is k-covered has the same
// answer before and after eviction.
func TestEvictedGetReportsTheField(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, _, err := m.Create("t", "f", testSpec(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply("t", "f", []int{2, 7}); err != nil {
		t.Fatal(err)
	}
	want, err := m.Get("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Evict("t", "f"); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	want.Evicted = true
	if got != want {
		t.Errorf("evicted info = %+v, want %+v", got, want)
	}
}

func TestEvictIdleAndJanitorAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Registry: reg})
	for i := 0; i < 3; i++ {
		if _, _, err := m.Create("t", fmt.Sprintf("f%d", i), testSpec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.EvictIdle(0); n != 3 {
		t.Fatalf("EvictIdle evicted %d, want 3", n)
	}
	// Idempotent: already evicted.
	if n := m.EvictIdle(0); n != 0 {
		t.Fatalf("second EvictIdle evicted %d, want 0", n)
	}
	// Evicted sessions still count against the tenant (they are owned
	// state), and restore transparently on the next event.
	if n := m.sessionCount(); n != 3 {
		t.Errorf("sessions after evict = %d, want 3", n)
	}
	if _, err := m.Apply("t", "f1", []int{3}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.SessionRestored).Value(); got != 1 {
		t.Errorf("restored counter = %d, want 1", got)
	}
	if got := reg.Counter(obs.SessionEvicted).Value(); got != 3 {
		t.Errorf("evicted counter = %d, want 3", got)
	}
	// A session idle for under the TTL survives EvictIdle.
	if n := m.EvictIdle(time.Hour); n != 0 {
		t.Errorf("hour-TTL EvictIdle evicted %d fresh sessions", n)
	}
}

func TestTenantQuotas(t *testing.T) {
	m, g := newTestManager(t, Config{MaxSessionsPerTenant: 2, MaxSessions: 3}), admit.New(1)
	m.gate = g
	if _, _, err := m.Create("a", "a1", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Create("a", "a2", testSpec(2)); err != nil {
		t.Fatal(err)
	}
	// Tenant a is at its quota; tenant b is not disturbed.
	if _, _, err := m.Create("a", "a3", testSpec(3)); !errors.Is(err, ErrTenantSessions) {
		t.Errorf("over-quota create err = %v", err)
	}
	if _, _, err := m.Create("b", "b1", testSpec(4)); err != nil {
		t.Errorf("tenant b disturbed by tenant a's quota: %v", err)
	}
	// Global cap: the table is full now for everyone.
	if _, _, err := m.Create("c", "c1", testSpec(5)); !errors.Is(err, ErrSaturated) {
		t.Errorf("global-cap create err = %v", err)
	}
	// Dropping frees quota.
	if err := m.Drop("a", "a1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Create("a", "a4", testSpec(6)); err != nil {
		t.Errorf("create after drop: %v", err)
	}

	// The tenant's share of the admission gate: a tenant holding all of
	// it gets ErrTenantBusy, and other tenants are not disturbed.
	leave := fill(g, "a")
	if _, err := m.Apply("a", "a2", []int{1}); !errors.Is(err, ErrTenantBusy) {
		t.Errorf("apply past the tenant's share: err = %v, want ErrTenantBusy", err)
	}
	if _, err := m.Apply("b", "b1", []int{1}); err != nil {
		t.Errorf("tenant b disturbed by tenant a's share: %v", err)
	}
	leave()
	if _, err := m.Apply("a", "a2", []int{1}); err != nil {
		t.Errorf("apply once the share frees: %v", err)
	}
}

func TestSubscribeReplayAndLive(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, _, err := m.Create("t", "f", testSpec(2)); err != nil {
		t.Fatal(err)
	}
	d1, err := m.Apply("t", "f", []int{5})
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe from 0: the ring (seq 0 and 1) replays immediately.
	ch, cancel, err := m.Subscribe("t", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	got0 := <-ch
	got1 := <-ch
	if got0.Seq != 0 || got1.Seq != 1 {
		t.Fatalf("replayed seqs = %d, %d", got0.Seq, got1.Seq)
	}
	if !bytes.Equal(mustJSON(t, got1), mustJSON(t, d1)) {
		t.Error("replayed delta differs from the applied one")
	}

	// A live event arrives on the feed.
	d2, err := m.Apply("t", "f", []int{8})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case live := <-ch:
		if !bytes.Equal(mustJSON(t, live), mustJSON(t, d2)) {
			t.Error("live delta differs from the applied one")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live delta never arrived")
	}

	// A session with subscribers is not evictable.
	if err := m.Evict("t", "f"); !errors.Is(err, ErrSubscribed) {
		t.Errorf("evict with subscriber err = %v", err)
	}
	cancel()
	if err := m.Evict("t", "f"); err != nil {
		t.Errorf("evict after cancel: %v", err)
	}

	// Subscribing restores the evicted session and replays from fromSeq.
	ch2, cancel2, err := m.Subscribe("t", "f", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	re := <-ch2
	if re.Seq != 2 || !bytes.Equal(mustJSON(t, re), mustJSON(t, d2)) {
		t.Errorf("post-restore replay = %+v", re)
	}
}

func TestCloseUnblocksEverything(t *testing.T) {
	m := New(Config{Registry: obs.NewRegistry()})
	if _, _, err := m.Create("t", "f", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	ch, _, err := m.Subscribe("t", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-ch // drain the seq-0 replay
	m.Close()
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("unexpected delta after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber channel not closed on shutdown")
	}
	if _, err := m.Apply("t", "f", []int{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("apply after close err = %v", err)
	}
	if _, _, err := m.Create("t", "g", testSpec(2)); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close err = %v", err)
	}
	m.Close() // idempotent
}

// TestSpecBuildMatchesFacade: the spec builder follows the facade's ID
// rules (explicit IDs verbatim, scattered after the largest explicit).
func TestSpecBuildMatchesFacade(t *testing.T) {
	sp := testSpec(7)
	sp.Sensors = []Sensor{{ID: 100, X: 5, Y: 5}, {ID: 3, X: 20, Y: 20}}
	sp.Scatter = 2
	d, err := sp.build()
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool)
	for _, s := range d.Sensors() {
		ids[s.ID] = true
	}
	for _, want := range []int{100, 3, 101, 102} {
		if !ids[want] {
			t.Errorf("missing sensor id %d in %v", want, ids)
		}
	}
	var bad Spec
	if _, err := bad.build(); err == nil {
		t.Error("zero spec must not build")
	}
}
