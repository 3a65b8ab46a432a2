package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"decor/internal/admit"
	"decor/internal/obs"
)

// Config sizes a Manager. The zero value gets production-shaped defaults
// from normalization.
type Config struct {
	// MaxSessions caps live+evicted sessions across all tenants (503 on
	// overflow). Default 4096.
	MaxSessions int
	// MaxSessionsPerTenant caps one tenant's sessions, live or evicted
	// (429 on overflow). Default 64.
	MaxSessionsPerTenant int
	// IdleTTL seals sessions idle longer than this into their records (0
	// disables the janitor; EvictIdle can still be called manually).
	IdleTTL time.Duration
	// Registry receives the decor_session_* instruments (default:
	// obs.Default()).
	Registry *obs.Registry
}

func (c Config) normalized() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = 64
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// ringDeltas is each session's replay ring for SSE catch-up reads.
const ringDeltas = 64

// newGate builds a manager's own admission gate, GOMAXPROCS run slots,
// not the one plans pass (DESIGN.md §9, *Why two gates*). A variable so
// a test can hand the managers it builds a smaller gate.
var newGate = func() *admit.Gate { return admit.New(runtime.GOMAXPROCS(0)) }

// Manager owns every field session. Each field has its own lock, and an
// operation runs on its caller's goroutine while holding it, so a
// Deployment is used by one goroutine at a time and no field waits
// behind an unrelated one. All methods are safe for concurrent use.
type Manager struct {
	cfg  Config
	gate *admit.Gate // admits every call and bounds how many run at once
	quit chan struct{}
	wg   sync.WaitGroup // the idle janitor

	// mu guards the field table and the session accounting. Lock order:
	// a field's mu before mu; nothing waits for a field while holding mu.
	mu       sync.Mutex
	fields   map[string]*field // by skey
	sessions map[string]int    // per tenant, live + evicted
	total    int
	closed   bool

	tenants obs.TenantLabels // caps the decor_session_tenant_* labels

	now func() time.Time // test seam; never influences outputs

	gLive                                   *obs.Gauge
	cCreated, cEvicted, cRestored, cDropped *obs.Counter
	cDeltas, cQuotaRejected, cSubsDropped   *obs.Counter
	hDeltaSeconds, hRestoreSeconds          *obs.Histogram
}

// field is one session's slot in the table. mu serializes every
// operation on the session; the other members are read and written only
// under it.
type field struct {
	mu     sync.Mutex
	tenant string
	st     *state // nil while evicted
	snap   []byte // the evicted session's record
	// info is the evicted session's metadata, captured at eviction. An
	// evicted session cannot change: every call that would change it
	// restores it first.
	info Info
	// gone is set when the field is dropped (ErrNotFound) or the manager
	// closes (ErrClosed); a caller that waited for mu returns it.
	gone error
	// deltas counts the field's deltas under its tenant's label. It is
	// resolved at the field's first delta, so a field that never has one
	// adds no series.
	deltas *obs.Counter
}

// New builds a Manager (and starts the idle janitor when IdleTTL is
// set).
func New(cfg Config) *Manager {
	cfg = cfg.normalized()
	m := &Manager{
		cfg:      cfg,
		gate:     newGate(),
		quit:     make(chan struct{}),
		fields:   map[string]*field{},
		sessions: map[string]int{},
		now:      time.Now,
	}
	r := cfg.Registry
	m.gLive = r.Gauge(obs.SessionLive)
	m.cCreated = r.Counter(obs.SessionCreated)
	m.cEvicted = r.Counter(obs.SessionEvicted)
	m.cRestored = r.Counter(obs.SessionRestored)
	m.cDropped = r.Counter(obs.SessionDropped)
	m.cDeltas = r.Counter(obs.SessionDeltas)
	m.cQuotaRejected = r.Counter(obs.SessionQuotaRejected)
	m.cSubsDropped = r.Counter(obs.SessionSubsDropped)
	m.hDeltaSeconds = r.Histogram(obs.SessionDeltaSeconds)
	m.hRestoreSeconds = r.Histogram(obs.SessionRestoreSeconds)

	if cfg.IdleTTL > 0 {
		m.wg.Add(1)
		go m.janitor()
	}
	return m
}

func (m *Manager) janitor() {
	defer m.wg.Done()
	period := m.cfg.IdleTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.EvictIdle(m.cfg.IdleTTL)
		case <-m.quit:
			return
		}
	}
}

// tenantCounter resolves a per-tenant labeled counter under the cap.
func (m *Manager) tenantCounter(name, tenant string) *obs.Counter {
	return m.cfg.Registry.CounterL(name, "tenant", m.tenants.Label(tenant))
}

// skey is the field-table key for a session: field IDs are namespaced
// per tenant, so two tenants may use the same ID independently and
// neither can detect the other's choice of names.
func skey(tenant, id string) string { return tenant + "\x00" + id }

// enter admits one call for tenant through the gate, answering a refusal
// with this package's error for it. The gate is never closed; m.closed is.
func (m *Manager) enter(tenant string) error {
	err := m.gate.Enter(tenant)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, admit.ErrTenant):
		m.cQuotaRejected.Inc()
		return ErrTenantBusy
	}
	return ErrSaturated
}

// run waits for a run slot. A session call has no deadline, so the wait
// ends only when a slot frees and Run cannot fail.
func (m *Manager) run() { _ = m.gate.Run(context.Background()) }

// acquire admits one call on the tenant's field, then waits for the
// field's lock and a run slot. The caller runs its operation and calls
// release.
func (m *Manager) acquire(tenant, id string) (*field, error) {
	if err := m.enter(tenant); err != nil {
		return nil, err
	}
	m.mu.Lock()
	f, closed := m.fields[skey(tenant, id)], m.closed
	m.mu.Unlock()
	switch {
	case closed:
		m.gate.Leave(tenant)
		return nil, ErrClosed
	case f == nil || f.tenant != tenant:
		m.gate.Leave(tenant)
		return nil, ErrNotFound
	}
	f.mu.Lock()
	if err := f.gone; err != nil {
		f.mu.Unlock()
		m.gate.Leave(tenant)
		return nil, err
	}
	// The field's lock is held across the wait for a run slot, not taken
	// after it: a call waiting for a busy field then holds no slot, so
	// one long repair cannot idle the processors other fields could use.
	m.run()
	return f, nil
}

// release gives back what acquire took.
func (m *Manager) release(f *field) {
	m.gate.Done()
	f.mu.Unlock()
	m.gate.Leave(f.tenant)
}

// live returns a locked field's session, restoring an evicted one from
// its record first. A restore failure is an ErrRestore.
func (m *Manager) live(f *field) (*state, error) {
	if f.st != nil {
		return f.st, nil
	}
	span := obs.Start(nil, "", m.hRestoreSeconds)
	st, err := restore(f.snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	span.End()
	f.st, f.snap = st, nil
	m.cRestored.Inc()
	return st, nil
}

// fieldList copies the field table.
func (m *Manager) fieldList() []*field {
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := make([]*field, 0, len(m.fields))
	for _, f := range m.fields {
		fs = append(fs, f)
	}
	return fs
}

// Create builds a new session for tenant under fieldID and returns its
// initial restoration plan (Seq 0). Quotas are reserved up front so a
// flood of creates from one tenant cannot take the admission capacity
// that other tenants' events need. The field enters the table locked,
// so a concurrent Create of the same ID gets ErrExists and other calls
// on it wait for the build.
func (m *Manager) Create(tenant, fieldID string, spec Spec) (Info, Delta, error) {
	if err := m.reserveSession(tenant); err != nil {
		m.cQuotaRejected.Inc()
		return Info{}, Delta{}, err
	}
	if err := m.enter(tenant); err != nil {
		m.releaseSession(tenant)
		return Info{}, Delta{}, err
	}
	k := skey(tenant, fieldID)
	f := &field{tenant: tenant}
	f.mu.Lock()
	m.mu.Lock()
	// Once Close has begun, its sweep of the table may be past already,
	// so the field must not enter it.
	err := ErrClosed
	if !m.closed {
		err = ErrExists
		if m.fields[k] == nil {
			m.fields[k], err = f, nil
		}
	}
	m.mu.Unlock()
	if err != nil {
		m.gate.Leave(tenant)
		m.releaseSession(tenant)
		return Info{}, Delta{}, err
	}
	m.run()
	defer m.release(f)

	st, delta, err := newState(context.Background(), tenant, fieldID, spec, ringDeltas)
	if err != nil {
		f.gone = ErrNotFound
		m.mu.Lock()
		delete(m.fields, k)
		m.mu.Unlock()
		m.releaseSession(tenant)
		return Info{}, Delta{}, err
	}
	st.lastUse = m.now().UnixNano()
	f.st = st
	m.cCreated.Inc()
	m.tenantCounter(obs.SessionTenantCreated, tenant).Inc()
	m.gLive.Add(1)
	return st.info(false), delta, nil
}

// Apply destroys the event's sensors in the tenant's session and returns
// the incremental repair delta. An evicted session is restored
// transparently first.
func (m *Manager) Apply(tenant, fieldID string, failed []int) (Delta, error) {
	f, err := m.acquire(tenant, fieldID)
	if err != nil {
		return Delta{}, err
	}
	defer m.release(f)
	st, err := m.live(f)
	if err != nil {
		return Delta{}, err
	}
	span := obs.Start(nil, "", m.hDeltaSeconds)
	subsBefore := len(st.subs)
	delta, err := st.apply(context.Background(), failed, ringDeltas)
	if err != nil {
		return Delta{}, err
	}
	if dropped := subsBefore - len(st.subs); dropped > 0 {
		m.cSubsDropped.Add(int64(dropped))
	}
	span.End()
	st.lastUse = m.now().UnixNano()
	m.cDeltas.Inc()
	if f.deltas == nil {
		f.deltas = m.tenantCounter(obs.SessionTenantDeltas, tenant)
	}
	f.deltas.Inc()
	return delta, nil
}

// Get returns session metadata without restoring an evicted session.
func (m *Manager) Get(tenant, fieldID string) (Info, error) {
	f, err := m.acquire(tenant, fieldID)
	if err != nil {
		return Info{}, err
	}
	defer m.release(f)
	if f.st != nil {
		return f.st.info(false), nil
	}
	return f.info, nil
}

// Drop removes the session (live or evicted) entirely. Calls that were
// waiting for the field then get ErrNotFound.
func (m *Manager) Drop(tenant, fieldID string) error {
	f, err := m.acquire(tenant, fieldID)
	if err != nil {
		return err
	}
	if f.st != nil {
		f.st.closeSubs()
	}
	f.st, f.snap, f.gone = nil, nil, ErrNotFound
	m.mu.Lock()
	delete(m.fields, skey(tenant, fieldID))
	m.mu.Unlock()
	m.release(f)
	m.releaseSession(tenant)
	m.cDropped.Inc()
	m.gLive.Add(-1)
	return nil
}

// Subscribe attaches a delta feed to the session: ring entries with
// Seq >= fromSeq are replayed immediately, then every new delta follows.
// The returned channel is closed when the subscriber falls behind or the
// session is dropped; cancel detaches (idempotent). An evicted session
// is restored transparently.
func (m *Manager) Subscribe(tenant, fieldID string, fromSeq uint64) (<-chan Delta, func(), error) {
	f, err := m.acquire(tenant, fieldID)
	if err != nil {
		return nil, nil, err
	}
	defer m.release(f)
	st, err := m.live(f)
	if err != nil {
		return nil, nil, err
	}
	// Buffered to hold a full ring replay plus a burst of live deltas.
	ch := make(chan Delta, ringDeltas+16)
	for _, d := range st.ring {
		if d.Seq >= fromSeq {
			ch <- d // fits: buffer >= ring capacity
		}
	}
	key := st.nextSub
	st.nextSub++
	st.subs[key] = ch
	st.lastUse = m.now().UnixNano()
	cancel := func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		// The session may have dropped this subscriber, or been evicted
		// and restored with new ones, since.
		if f.st != nil && f.st.subs[key] == ch {
			close(ch)
			delete(f.st.subs, key)
		}
	}
	return ch, cancel, nil
}

// Evict seals the session into its record and releases its live state
// now, regardless of idle time (tests and admin tooling; the janitor
// uses EvictIdle). Sessions with active subscribers are not evictable.
func (m *Manager) Evict(tenant, fieldID string) error {
	f, err := m.acquire(tenant, fieldID)
	if err != nil {
		return err
	}
	defer m.release(f)
	switch {
	case f.st == nil:
		return ErrNotFound
	case len(f.st.subs) > 0:
		return ErrSubscribed
	}
	f.evict()
	m.cEvicted.Inc()
	return nil
}

// evict seals a locked field's live session into its record and keeps
// the session's metadata for Get.
func (f *field) evict() {
	f.snap, f.info, f.st = f.st.snapshot(), f.st.info(true), nil
}

// EvictIdle seals into its record and releases every session idle for
// at least ttl (and without active subscribers), returning how many were
// evicted. It locks one field at a time.
func (m *Manager) EvictIdle(ttl time.Duration) int {
	cutoff := m.now().Add(-ttl).UnixNano()
	n := 0
	for _, f := range m.fieldList() {
		f.mu.Lock()
		if st := f.st; f.gone == nil && st != nil && len(st.subs) == 0 && st.lastUse <= cutoff {
			m.run()
			f.evict()
			m.gate.Done()
			n++
		}
		f.mu.Unlock()
	}
	if n > 0 {
		m.cEvicted.Add(int64(n))
	}
	return n
}

// Close shuts the manager down: new calls and calls still waiting for a
// field get ErrClosed, running ones finish, subscriber channels close.
// Session state is discarded, live sessions and sealed records alike: a
// record never leaves the process that sealed it, and durable
// persistence is a deliberate non-goal here.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.quit)
	m.wg.Wait()
	for _, f := range m.fieldList() {
		f.mu.Lock()
		if f.st != nil {
			f.st.closeSubs()
		}
		f.gone = ErrClosed
		f.mu.Unlock()
	}
}

func (m *Manager) reserveSession(tenant string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.total >= m.cfg.MaxSessions {
		return ErrSaturated
	}
	if m.sessions[tenant] >= m.cfg.MaxSessionsPerTenant {
		return ErrTenantSessions
	}
	m.sessions[tenant]++
	m.total++
	return nil
}

func (m *Manager) releaseSession(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sessions[tenant] > 0 {
		m.sessions[tenant]--
		if m.sessions[tenant] == 0 {
			delete(m.sessions, tenant)
		}
	}
	if m.total > 0 {
		m.total--
	}
}

// ErrSubscribed: eviction refused because live subscribers are attached.
var ErrSubscribed = errors.New("session: field has active subscribers")
