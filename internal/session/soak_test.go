package session

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"decor/internal/admit"
	"decor/internal/chaos"
	"decor/internal/obs"
)

// TestSessionSoak is the `make session-smoke` gate: a seeded
// multi-tenant soak driven by the chaos layer's failure traffic, applied
// concurrently across sessions (events stay ordered within a session),
// with idle evictions interleaved. Two full runs must produce
// byte-identical per-session delta streams — the live-replay determinism
// the whole subsystem is built on — and tenants must stay isolated.
// Run it under -race: the field locks, run slots, quota table, and
// labeled instruments are all concurrent here.
func TestSessionSoak(t *testing.T) {
	const (
		tenants          = 3
		fieldsPerTenant  = 4
		eventsPerSession = 8
	)

	soak := func(runIdx int) map[string][]byte {
		m := newTestManager(t, Config{MaxSessionsPerTenant: fieldsPerTenant})
		type sessionPlan struct {
			tenant, id string
			spec       Spec
			events     []chaos.FailureEvent
		}
		var plans []sessionPlan
		for ti := 0; ti < tenants; ti++ {
			for fi := 0; fi < fieldsPerTenant; fi++ {
				seed := uint64(1000 + ti*100 + fi)
				spec := testSpec(seed)
				// Scattered sensors take IDs 0..Scatter-1; the chaos
				// traffic plan fails a seeded subset of them, once each.
				ids := make([]int, spec.Scatter)
				for i := range ids {
					ids[i] = i
				}
				plan := chaos.BoundedPlan(chaos.DefaultScenario(chaos.ArchGrid, seed))
				plans = append(plans, sessionPlan{
					tenant: fmt.Sprintf("tenant-%d", ti),
					id:     fmt.Sprintf("field-%d-%d", ti, fi),
					spec:   spec,
					events: chaos.TrafficFromPlan(plan, ids, eventsPerSession),
				})
			}
		}

		streams := make([]bytes.Buffer, len(plans))
		var wg sync.WaitGroup
		wg.Add(len(plans))
		for i, p := range plans {
			go func(i int, p sessionPlan) {
				defer wg.Done()
				_, initial, err := m.Create(p.tenant, p.id, p.spec)
				if err != nil {
					t.Errorf("%s/%s create: %v", p.tenant, p.id, err)
					return
				}
				streams[i].Write(mustJSON(t, initial))
				streams[i].WriteByte('\n')
				for ei, ev := range p.events {
					d, err := m.Apply(p.tenant, p.id, ev.IDs)
					if err != nil {
						t.Errorf("%s/%s event %d: %v", p.tenant, p.id, ei, err)
						return
					}
					streams[i].Write(mustJSON(t, d))
					streams[i].WriteByte('\n')
					// Mid-stream eviction on a deterministic subset:
					// restore must be invisible in the delta bytes.
					if ei == eventsPerSession/2 && i%3 == runIdx%3 {
						// Ignore ErrSubscribed/ErrNotFound shaped races —
						// there are none here, so any error is real.
						if err := m.Evict(p.tenant, p.id); err != nil {
							t.Errorf("%s/%s evict: %v", p.tenant, p.id, err)
						}
					}
				}
			}(i, p)
		}
		wg.Wait()

		out := make(map[string][]byte, len(plans))
		for i, p := range plans {
			out[p.tenant+"/"+p.id] = streams[i].Bytes()
		}
		return out
	}

	// Two runs with different eviction points: byte-identical streams.
	a := soak(0)
	b := soak(1)
	if len(a) != len(b) {
		t.Fatalf("session counts differ: %d vs %d", len(a), len(b))
	}
	for key, sa := range a {
		if !bytes.Equal(sa, b[key]) {
			t.Errorf("%s: delta stream differs between runs", key)
		}
	}
}

// TestSoakQuotaIsolation floods one tenant past its session quota and its
// share of the admission gate while a well-behaved tenant works; every
// flooding call is refused, and the victim tenant sees zero failures.
func TestSoakQuotaIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	m, g := newTestManager(t, Config{Registry: reg, MaxSessionsPerTenant: 2}), admit.New(1)
	m.gate = g
	for _, f := range []struct{ tenant, id string }{{"good", "g1"}, {"noisy", "n0"}, {"noisy", "n1"}} {
		if _, _, err := m.Create(f.tenant, f.id, testSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	// The noisy tenant holds its whole admission share, as a burst of
	// its pending events would.
	defer fill(g, "noisy")()

	const flood = 32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // creates past the session quota, events past the share
		defer wg.Done()
		for i := 0; i < flood; i++ {
			if _, _, err := m.Create("noisy", fmt.Sprintf("x%d", i), testSpec(uint64(i))); !errors.Is(err, ErrTenantSessions) {
				t.Errorf("noisy create %d: err = %v, want ErrTenantSessions", i, err)
			}
			if _, err := m.Apply("noisy", "n0", []int{i}); !errors.Is(err, ErrTenantBusy) {
				t.Errorf("noisy event %d: err = %v, want ErrTenantBusy", i, err)
			}
		}
	}()

	for i := 0; i < eventsForIsolation; i++ {
		if _, err := m.Apply("good", "g1", []int{i}); err != nil {
			t.Fatalf("good tenant disturbed at event %d: %v", i, err)
		}
	}
	wg.Wait()
	if got := reg.Counter(obs.SessionQuotaRejected).Value(); got != 2*flood {
		t.Errorf("quota rejections = %d, want %d (every flooding call)", got, 2*flood)
	}
	if n := m.sessionCount(); n != 3 {
		t.Errorf("%d sessions, want 3: the noisy tenant exceeded its quota", n)
	}
}

const eventsForIsolation = 10
