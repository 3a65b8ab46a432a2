package session

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"time"

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
	// MaxPendingPerTenant caps one tenant's concurrently pending events
	// — the fairness bound that keeps one tenant from monopolizing the
	// manager's admission bound (429 on overflow). Default 32.
	MaxPendingPerTenant int
	// RingDeltas is the per-session replay ring for SSE catch-up reads.
	// Default 64.
	RingDeltas int
	// IdleTTL evicts sessions idle longer than this to snapshots (0
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
	if c.MaxPendingPerTenant <= 0 {
		c.MaxPendingPerTenant = 32
	}
	if c.RingDeltas <= 0 {
		c.RingDeltas = 64
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// The manager's two resource bounds derive from GOMAXPROCS; they are not
// settings. At most runSlots operations run at once, so planning never
// oversubscribes the processors; an operation takes its run slot only
// once it holds its field's lock, so a call waiting for a busy field
// holds no slot. At most maxAdmitted calls are admitted at once, running
// or waiting; the next one gets ErrSaturated (503) instead of queueing
// without bound.
var (
	runSlots    = runtime.GOMAXPROCS(0)
	maxAdmitted = 256 * runSlots
)

// Manager owns every field session. Each field has its own lock, and an
// operation runs on its caller's goroutine while holding it, so a
// Deployment is used by one goroutine at a time and no field waits
// behind an unrelated one. All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	slots chan struct{} // run slots, runSlots deep
	quit  chan struct{}
	wg    sync.WaitGroup // the idle janitor

	// mu guards the field table, the tenant accounting and the admission
	// count. Lock order: a field's mu before mu; nothing waits for a
	// field while holding mu.
	mu       sync.Mutex
	fields   map[string]*field // by skey
	sessions map[string]int    // per tenant, live + evicted
	pending  map[string]int    // per tenant
	total    int
	admitted int
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
	snap   []byte // the evicted session's snapshot
	// gone is set when the field is dropped (ErrNotFound) or the manager
	// closes (ErrClosed); a caller that waited for mu returns it.
	gone error
}

// New builds a Manager (and starts the idle janitor when IdleTTL is
// set).
func New(cfg Config) *Manager {
	cfg = cfg.normalized()
	m := &Manager{
		cfg:      cfg,
		slots:    make(chan struct{}, runSlots),
		quit:     make(chan struct{}),
		fields:   map[string]*field{},
		sessions: map[string]int{},
		pending:  map[string]int{},
		now:      time.Now,
	}
	r := cfg.Registry
	obs.RegisterSession(r)
	m.gLive = r.Gauge(obs.SessionLive)
	m.cCreated = r.Counter(obs.SessionCreated)
	m.cEvicted = r.Counter(obs.SessionEvicted)
	m.cRestored = r.Counter(obs.SessionRestored)
	m.cDropped = r.Counter(obs.SessionDropped)
	m.cDeltas = r.Counter(obs.SessionDeltas)
	m.cQuotaRejected = r.Counter(obs.SessionQuotaRejected)
	m.cSubsDropped = r.Counter(obs.SessionSubsDropped)
	m.hDeltaSeconds = r.Histogram(obs.SessionDeltaSeconds, obs.DefLatencyBuckets)
	m.hRestoreSeconds = r.Histogram(obs.SessionRestoreSeconds, obs.DefLatencyBuckets)

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

// tenantCounter bumps a per-tenant labeled counter under the cap.
func (m *Manager) tenantCounter(name, tenant string) {
	r := m.cfg.Registry
	r.CounterL(name, r.Labels("tenant", m.tenants.Label(tenant))).Inc()
}

// skey is the field-table key for a session: field IDs are namespaced
// per tenant, so two tenants may use the same ID independently and
// neither can detect the other's choice of names.
func skey(tenant, id string) string { return tenant + "\x00" + id }

// admit counts one call against maxAdmitted. m.mu is held.
func (m *Manager) admit() error {
	switch {
	case m.closed:
		return ErrClosed
	case m.admitted >= maxAdmitted:
		return ErrSaturated
	}
	m.admitted++
	return nil
}

// acquire admits one call on the tenant's field, then waits for the
// field's lock and a run slot. The caller runs its operation and calls
// release.
func (m *Manager) acquire(tenant, id string) (*field, error) {
	m.mu.Lock()
	f := m.fields[skey(tenant, id)]
	err := m.admit()
	if err == nil && (f == nil || f.tenant != tenant) {
		m.admitted--
		err = ErrNotFound
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if err := f.gone; err != nil {
		f.mu.Unlock()
		m.leave()
		return nil, err
	}
	m.slots <- struct{}{}
	return f, nil
}

// release gives back what acquire took.
func (m *Manager) release(f *field) {
	<-m.slots
	f.mu.Unlock()
	m.leave()
}

func (m *Manager) leave() {
	m.mu.Lock()
	m.admitted--
	m.mu.Unlock()
}

// live returns a locked field's session, restoring an evicted one from
// its snapshot first.
func (m *Manager) live(f *field) (*state, error) {
	if f.st != nil {
		return f.st, nil
	}
	span := obs.Start(nil, "", m.hRestoreSeconds)
	st, err := restore(context.Background(), f.snap, m.cfg.RingDeltas)
	if err != nil {
		return nil, err
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
	k := skey(tenant, fieldID)
	f := &field{tenant: tenant}
	m.mu.Lock()
	err := m.admit()
	if err == nil && m.fields[k] != nil {
		m.admitted--
		err = ErrExists
	}
	if err == nil {
		f.mu.Lock()
		m.fields[k] = f
	}
	m.mu.Unlock()
	if err != nil {
		m.releaseSession(tenant)
		return Info{}, Delta{}, err
	}
	m.slots <- struct{}{}
	defer m.release(f)

	st, delta, err := newState(context.Background(), tenant, fieldID, spec, m.cfg.RingDeltas)
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
	m.tenantCounter(obs.SessionTenantCreated, tenant)
	m.gLive.Add(1)
	return st.info(false), delta, nil
}

// Apply destroys the event's sensors in the tenant's session and returns
// the incremental repair delta. An evicted session is restored
// transparently first.
func (m *Manager) Apply(tenant, fieldID string, failed []int) (Delta, error) {
	if err := m.reservePending(tenant); err != nil {
		m.cQuotaRejected.Inc()
		return Delta{}, err
	}
	defer m.releasePending(tenant)
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
	delta, err := st.apply(context.Background(), failed, m.cfg.RingDeltas)
	if err != nil {
		return Delta{}, err
	}
	if dropped := subsBefore - len(st.subs); dropped > 0 {
		m.cSubsDropped.Add(int64(dropped))
	}
	span.End()
	st.lastUse = m.now().UnixNano()
	m.cDeltas.Inc()
	m.tenantCounter(obs.SessionTenantDeltas, tenant)
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
	var snap Snapshot
	if err := json.Unmarshal(f.snap, &snap); err != nil {
		return Info{}, err
	}
	return Info{
		FieldID: snap.ID,
		Tenant:  snap.Tenant,
		Seq:     uint64(len(snap.Events)),
		Evicted: true,
	}, nil
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
	ch := make(chan Delta, m.cfg.RingDeltas+16)
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

// Evict snapshots the session and releases its live state now,
// regardless of idle time (tests and admin tooling; the janitor uses
// EvictIdle). Sessions with active subscribers are not evictable.
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
	f.snap, f.st = f.st.snapshot(), nil
	m.cEvicted.Inc()
	return nil
}

// EvictIdle snapshots and releases every session idle for at least ttl
// (and without active subscribers), returning how many were evicted. It
// locks one field at a time.
func (m *Manager) EvictIdle(ttl time.Duration) int {
	cutoff := m.now().Add(-ttl).UnixNano()
	n := 0
	for _, f := range m.fieldList() {
		f.mu.Lock()
		if st := f.st; f.gone == nil && st != nil && len(st.subs) == 0 && st.lastUse <= cutoff {
			m.slots <- struct{}{}
			f.snap, f.st = st.snapshot(), nil
			<-m.slots
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
// Session state is discarded — sessions are rebuildable by design
// (snapshots are replay logs), and durable persistence is a deliberate
// non-goal here.
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

func (m *Manager) reservePending(tenant string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.pending[tenant] >= m.cfg.MaxPendingPerTenant {
		return ErrTenantBusy
	}
	m.pending[tenant]++
	return nil
}

func (m *Manager) releasePending(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[tenant] > 0 {
		m.pending[tenant]--
		if m.pending[tenant] == 0 {
			delete(m.pending, tenant)
		}
	}
}

// ErrSubscribed: eviction refused because live subscribers are attached.
var ErrSubscribed = errors.New("session: field has active subscribers")
