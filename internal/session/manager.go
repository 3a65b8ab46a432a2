package session

import (
	"context"
	"encoding/json"
	"errors"

	"hash/fnv"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"decor/internal/obs"
)

// Config sizes a Manager. The zero value gets production-shaped defaults
// from normalization.
type Config struct {
	// Shards is the number of session shard goroutines; every session is
	// pinned to one shard by consistent hash of its field ID, and all of
	// its operations execute on that shard's goroutine (the facade's
	// single-goroutine contract). Default: GOMAXPROCS.
	Shards int
	// MailboxDepth bounds each shard's pending-operation queue; a full
	// mailbox rejects with ErrSaturated (503). Default 256.
	MailboxDepth int
	// MaxSessions caps live+evicted sessions across all tenants (503 on
	// overflow). Default 4096.
	MaxSessions int
	// MaxSessionsPerTenant caps one tenant's sessions, live or evicted
	// (429 on overflow). Default 64.
	MaxSessionsPerTenant int
	// MaxPendingPerTenant caps one tenant's concurrently pending events
	// across all shards — the fairness bound that keeps one tenant from
	// monopolizing shard mailboxes (429 on overflow). Default 32.
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
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 256
	}
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

// Manager owns every field session: a fixed set of shard goroutines,
// each confining its sessions' deployments, plus the tenant quota table
// shared by all shards. All methods are safe for concurrent use.
type Manager struct {
	cfg    Config
	shards []*shardLoop
	quit   chan struct{}
	wg     sync.WaitGroup

	// Tenant accounting: session counts (live + evicted) and pending
	// event counts, plus the global session total.
	tmu      sync.Mutex
	sessions map[string]int // per tenant
	pending  map[string]int // per tenant
	total    int
	closed   bool

	tenants obs.TenantLabels // caps the decor_session_tenant_* labels

	now func() time.Time // test seam; never influences outputs

	gLive                                   *obs.Gauge
	cCreated, cEvicted, cRestored, cDropped *obs.Counter
	cDeltas, cQuotaRejected, cSubsDropped   *obs.Counter
	hDeltaSeconds, hRestoreSeconds          *obs.Histogram
}

// New builds a Manager and starts its shard goroutines (and the idle
// janitor when IdleTTL is set).
func New(cfg Config) *Manager {
	cfg = cfg.normalized()
	m := &Manager{
		cfg:      cfg,
		quit:     make(chan struct{}),
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

	m.shards = make([]*shardLoop, cfg.Shards)
	m.wg.Add(cfg.Shards)
	for i := range m.shards {
		sh := &shardLoop{
			m:        m,
			ops:      make(chan *op, cfg.MailboxDepth),
			live:     map[string]*state{},
			snapshot: map[string]snapEntry{},
		}
		m.shards[i] = sh
		go sh.run()
	}
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

// op is one session operation, executed on the owning shard's goroutine.
type op struct {
	kind    opKind
	tenant  string
	id      string
	spec    Spec
	failed  []int
	fromSeq uint64
	sub     chan Delta // subscribe: the delta feed; unsubscribe: identity
	ttl     time.Duration
	reply   chan opReply // buffered(1): the shard never blocks on delivery
}

type opKind int

const (
	opCreate opKind = iota
	opApply
	opGet
	opDrop
	opSubscribe
	opUnsubscribe
	opEvictIdle
	opEvict
)

type opReply struct {
	delta   Delta
	info    Info
	cancel  func()
	err     error
	evicted int
}

// skey is the shard-map key for a session: field IDs are namespaced per
// tenant, so two tenants may use the same ID independently and neither
// can detect the other's choice of names.
func skey(tenant, id string) string { return tenant + "\x00" + id }

// shardFor pins a session key to a shard by FNV-1a hash. With the shard
// count fixed for a manager's lifetime, the pinning is consistent: the
// same field always lands on the same goroutine. The shard comes from
// the hash's high bits (h·n / 2^64): FNV-1a's low bits depend only on
// the low bits of the key bytes, so a modulus would pile keys such as
// "f0-…", "f2-…" and "f4-…" onto one shard.
func (m *Manager) shardFor(key string) *shardLoop {
	h := fnv.New64a()
	h.Write([]byte(key))
	i, _ := bits.Mul64(h.Sum64(), uint64(len(m.shards)))
	return m.shards[i]
}

// send dispatches o to the owning shard and waits for its reply.
func (m *Manager) send(sh *shardLoop, o *op) opReply {
	select {
	case sh.ops <- o:
	case <-m.quit:
		return opReply{err: ErrClosed}
	default:
		return opReply{err: ErrSaturated}
	}
	select {
	case r := <-o.reply:
		return r
	case <-m.quit:
		return opReply{err: ErrClosed}
	}
}

// Create builds a new session for tenant under fieldID and returns its
// initial restoration plan (Seq 0). Quotas are reserved up front so a
// flood of creates from one tenant cannot consume shard capacity that
// other tenants' events need.
func (m *Manager) Create(tenant, fieldID string, spec Spec) (Info, Delta, error) {
	if err := m.reserveSession(tenant); err != nil {
		m.cQuotaRejected.Inc()
		return Info{}, Delta{}, err
	}
	o := &op{kind: opCreate, tenant: tenant, id: fieldID, spec: spec, reply: make(chan opReply, 1)}
	r := m.send(m.shardFor(skey(tenant, fieldID)), o)
	if r.err != nil {
		m.releaseSession(tenant)
		return Info{}, Delta{}, r.err
	}
	m.cCreated.Inc()
	m.tenantCounter(obs.SessionTenantCreated, tenant)
	m.gLive.Add(1)
	return r.info, r.delta, nil
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
	o := &op{kind: opApply, tenant: tenant, id: fieldID, failed: failed, reply: make(chan opReply, 1)}
	r := m.send(m.shardFor(skey(tenant, fieldID)), o)
	if r.err != nil {
		return Delta{}, r.err
	}
	m.cDeltas.Inc()
	m.tenantCounter(obs.SessionTenantDeltas, tenant)
	return r.delta, nil
}

// Get returns session metadata without restoring an evicted session.
func (m *Manager) Get(tenant, fieldID string) (Info, error) {
	o := &op{kind: opGet, tenant: tenant, id: fieldID, reply: make(chan opReply, 1)}
	r := m.send(m.shardFor(skey(tenant, fieldID)), o)
	return r.info, r.err
}

// Drop removes the session (live or evicted) entirely.
func (m *Manager) Drop(tenant, fieldID string) error {
	o := &op{kind: opDrop, tenant: tenant, id: fieldID, reply: make(chan opReply, 1)}
	r := m.send(m.shardFor(skey(tenant, fieldID)), o)
	if r.err != nil {
		return r.err
	}
	m.releaseSession(tenant)
	m.cDropped.Inc()
	m.gLive.Add(-1)
	return nil
}

// Subscribe attaches a delta feed to the session: ring entries with
// Seq >= fromSeq are replayed immediately, then every new delta follows.
// The returned channel is closed when the subscriber falls behind or the
// session is dropped; cancel detaches (idempotent, never blocks the
// shard). An evicted session is restored transparently.
func (m *Manager) Subscribe(tenant, fieldID string, fromSeq uint64) (<-chan Delta, func(), error) {
	// Buffered to hold a full ring replay plus a burst of live deltas.
	ch := make(chan Delta, m.cfg.RingDeltas+16)
	o := &op{kind: opSubscribe, tenant: tenant, id: fieldID, fromSeq: fromSeq, sub: ch, reply: make(chan opReply, 1)}
	r := m.send(m.shardFor(skey(tenant, fieldID)), o)
	if r.err != nil {
		return nil, nil, r.err
	}
	return ch, r.cancel, nil
}

// Evict snapshots the session and releases its live state now,
// regardless of idle time (tests and admin tooling; the janitor uses
// EvictIdle). Sessions with active subscribers are not evictable.
func (m *Manager) Evict(tenant, fieldID string) error {
	o := &op{kind: opEvict, tenant: tenant, id: fieldID, reply: make(chan opReply, 1)}
	return m.send(m.shardFor(skey(tenant, fieldID)), o).err
}

// EvictIdle snapshots and releases every session idle for at least ttl
// (and without active subscribers), returning how many were evicted.
func (m *Manager) EvictIdle(ttl time.Duration) int {
	n := 0
	for _, sh := range m.shards {
		o := &op{kind: opEvictIdle, ttl: ttl, reply: make(chan opReply, 1)}
		r := m.send(sh, o)
		n += r.evicted
	}
	return n
}

// Stats reports the manager's current occupancy.
type Stats struct {
	Sessions int `json:"sessions"` // live + evicted
	Tenants  int `json:"tenants"`
}

// Stats returns current occupancy totals.
func (m *Manager) Stats() Stats {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	return Stats{Sessions: m.total, Tenants: len(m.sessions)}
}

// Close shuts the manager down: shard goroutines exit, pending callers
// get ErrClosed, subscriber channels close. Session state is discarded —
// sessions are rebuildable by design (snapshots are replay logs), and
// durable persistence is a deliberate non-goal here.
func (m *Manager) Close() {
	m.tmu.Lock()
	if m.closed {
		m.tmu.Unlock()
		return
	}
	m.closed = true
	m.tmu.Unlock()
	close(m.quit)
	m.wg.Wait()
}

func (m *Manager) reserveSession(tenant string) error {
	m.tmu.Lock()
	defer m.tmu.Unlock()
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
	m.tmu.Lock()
	defer m.tmu.Unlock()
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
	m.tmu.Lock()
	defer m.tmu.Unlock()
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
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if m.pending[tenant] > 0 {
		m.pending[tenant]--
		if m.pending[tenant] == 0 {
			delete(m.pending, tenant)
		}
	}
}

// snapEntry is an evicted session: its snapshot plus the owning tenant
// (checked before restore, so one tenant can never touch another's
// field even by guessing IDs).
type snapEntry struct {
	tenant string
	raw    []byte
}

// shardLoop owns a disjoint subset of sessions. Everything below run()
// executes on the shard goroutine only.
type shardLoop struct {
	m        *Manager
	ops      chan *op
	live     map[string]*state
	snapshot map[string]snapEntry
}

func (sh *shardLoop) run() {
	defer sh.m.wg.Done()
	for {
		select {
		case o := <-sh.ops:
			o.reply <- sh.handle(o)
		case <-sh.m.quit:
			// Close every subscriber so SSE handlers unblock promptly.
			for _, st := range sh.live {
				for _, ch := range st.subs {
					close(ch)
				}
			}
			return
		}
	}
}

// lookup resolves (tenant, id) to a live session, restoring from a
// snapshot when necessary. Keys are tenant-namespaced, so unknown IDs
// and other tenants' IDs are indistinguishable by construction; the
// tenant equality checks are defense in depth.
func (sh *shardLoop) lookup(tenant, id string) (*state, error) {
	k := skey(tenant, id)
	if st, ok := sh.live[k]; ok {
		if st.tenant != tenant {
			return nil, ErrNotFound
		}
		return st, nil
	}
	ent, ok := sh.snapshot[k]
	if !ok || ent.tenant != tenant {
		return nil, ErrNotFound
	}
	span := obs.Start(nil, "", sh.m.hRestoreSeconds)
	st, err := restore(context.Background(), ent.raw, sh.m.cfg.RingDeltas)
	if err != nil {
		return nil, err
	}
	span.End()
	delete(sh.snapshot, k)
	sh.live[k] = st
	sh.m.cRestored.Inc()
	return st, nil
}

func (sh *shardLoop) handle(o *op) opReply {
	k := skey(o.tenant, o.id)
	switch o.kind {
	case opCreate:
		if _, ok := sh.live[k]; ok {
			return opReply{err: ErrExists}
		}
		if _, ok := sh.snapshot[k]; ok {
			return opReply{err: ErrExists}
		}
		st, delta, err := newState(context.Background(), o.tenant, o.id, o.spec, sh.m.cfg.RingDeltas)
		if err != nil {
			return opReply{err: err}
		}
		st.lastUse = sh.m.now().UnixNano()
		sh.live[k] = st
		return opReply{info: st.info(false), delta: delta}

	case opApply:
		st, err := sh.lookup(o.tenant, o.id)
		if err != nil {
			return opReply{err: err}
		}
		span := obs.Start(nil, "", sh.m.hDeltaSeconds)
		subsBefore := len(st.subs)
		delta, err := st.apply(context.Background(), o.failed, sh.m.cfg.RingDeltas)
		if err != nil {
			return opReply{err: err}
		}
		if dropped := subsBefore - len(st.subs); dropped > 0 {
			sh.m.cSubsDropped.Add(int64(dropped))
		}
		span.End()
		st.lastUse = sh.m.now().UnixNano()
		return opReply{delta: delta}

	case opGet:
		if st, ok := sh.live[k]; ok && st.tenant == o.tenant {
			return opReply{info: st.info(false)}
		}
		if ent, ok := sh.snapshot[k]; ok && ent.tenant == o.tenant {
			var snap Snapshot
			if err := json.Unmarshal(ent.raw, &snap); err != nil {
				return opReply{err: err}
			}
			return opReply{info: Info{
				FieldID: snap.ID,
				Tenant:  snap.Tenant,
				Seq:     uint64(len(snap.Events)),
				Evicted: true,
			}}
		}
		return opReply{err: ErrNotFound}

	case opDrop:
		if st, ok := sh.live[k]; ok && st.tenant == o.tenant {
			for _, ch := range st.subs {
				close(ch)
			}
			delete(sh.live, k)
			return opReply{}
		}
		if ent, ok := sh.snapshot[k]; ok && ent.tenant == o.tenant {
			delete(sh.snapshot, k)
			return opReply{}
		}
		return opReply{err: ErrNotFound}

	case opSubscribe:
		st, err := sh.lookup(o.tenant, o.id)
		if err != nil {
			return opReply{err: err}
		}
		for _, d := range st.ring {
			if d.Seq >= o.fromSeq {
				o.sub <- d // fits: buffer >= ring capacity
			}
		}
		key := st.nextSub
		st.nextSub++
		st.subs[key] = o.sub
		st.lastUse = sh.m.now().UnixNano()
		id := o.id
		cancel := func() {
			u := &op{kind: opUnsubscribe, tenant: o.tenant, id: id, fromSeq: uint64(key), reply: make(chan opReply, 1)}
			sh.m.send(sh, u)
		}
		return opReply{cancel: cancel}

	case opUnsubscribe:
		if st, ok := sh.live[k]; ok && st.tenant == o.tenant {
			key := int(o.fromSeq)
			if ch, ok := st.subs[key]; ok {
				close(ch)
				delete(st.subs, key)
			}
		}
		return opReply{}

	case opEvict:
		st, ok := sh.live[k]
		if !ok || st.tenant != o.tenant {
			return opReply{err: ErrNotFound}
		}
		if len(st.subs) > 0 {
			return opReply{err: ErrSubscribed}
		}
		sh.snapshot[k] = snapEntry{tenant: st.tenant, raw: st.snapshot()}
		delete(sh.live, k)
		sh.m.cEvicted.Inc()
		return opReply{}

	case opEvictIdle:
		cutoff := sh.m.now().Add(-o.ttl).UnixNano()
		n := 0
		for id, st := range sh.live {
			if len(st.subs) > 0 || st.lastUse > cutoff {
				continue
			}
			sh.snapshot[id] = snapEntry{tenant: st.tenant, raw: st.snapshot()}
			delete(sh.live, id)
			n++
		}
		if n > 0 {
			sh.m.cEvicted.Add(int64(n))
		}
		return opReply{evicted: n}

	}
	return opReply{err: ErrNotFound}
}

// ErrSubscribed: eviction refused because live subscribers are attached.
var ErrSubscribed = errors.New("session: field has active subscribers")
