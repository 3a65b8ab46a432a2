// Package session holds long-lived per-tenant field state for the
// serving layer: a field is created once (POST /v1/fields), then failure
// events stream in and incremental delta plans stream out, so a single
// sensor failure costs an incremental repair on the live coverage map
// instead of a full stateless replan (ROADMAP item 1, DESIGN.md §14).
//
// The paper's restoration loop (§3) is inherently continuous — holes
// open under ongoing failures and are healed as they appear — and this
// package is that loop as a service primitive. Each field has its own
// lock, and every operation on a session runs on its caller's goroutine
// while holding it: the decor facade's Deployment is not safe for
// concurrent use, and the lock gives it one goroutine at a time without
// making any field wait behind another. Determinism is load-bearing
// throughout: a session's delta stream is a pure function of its spec
// and its event sequence. A session is its field, not its history: an
// evicted session is sealed into one record of its deployment, sequence
// number and delta ring, and the restored session's future deltas are
// byte-identical to the unevicted ones. A damaged record is a restore
// error. Replaying the spec and every event from genesis is the tests'
// oracle for that, not a production path.
package session

import (
	"context"
	"errors"
	"fmt"

	"decor"
)

// Point is a field position in delta JSON (mirrors the service wire
// shape; session cannot import service without a cycle).
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Sensor is one pre-deployed sensor in a Spec, with an explicit ID so
// failure events are unambiguous.
type Sensor struct {
	ID int
	X  float64
	Y  float64
}

// Spec is the canonical description of a session's initial field: the
// deployment parameters plus the pre-deployed network. It must already
// be validated and defaulted (the service layer reuses its request
// normalization). Create reads it once; the session keeps only the
// field it builds and the method.
type Spec struct {
	FieldSide float64
	K         int
	Rs        float64
	Rc        float64
	NumPoints int
	Generator string
	Seed      uint64
	Sensors   []Sensor
	Scatter   int
	// Method is the planner used for the initial deploy and every delta
	// repair.
	Method string
}

// build constructs the spec's deployment: explicit sensors first, then
// the scattered ones (the facade's nextID rule gives them sequential IDs
// after the largest explicit one).
func (sp Spec) build() (*decor.Deployment, error) {
	d, err := decor.NewDeployment(decor.Params{
		FieldSide: sp.FieldSide,
		K:         sp.K,
		Rs:        sp.Rs,
		Rc:        sp.Rc,
		NumPoints: sp.NumPoints,
		Generator: sp.Generator,
		Seed:      sp.Seed,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range sp.Sensors {
		if err := d.AddSensorID(s.ID, decor.Point{X: s.X, Y: s.Y}); err != nil {
			return nil, err
		}
	}
	if sp.Scatter > 0 {
		d.ScatterRandom(sp.Scatter)
	}
	return d, nil
}

// Delta is one incremental plan: the repair for a single failure event
// (or, at Seq 0, the session's initial restoration plan). Every field is
// a deterministic function of the spec and the event sequence — no wall
// clock, no per-run identifiers — which is what makes delta streams
// byte-identical across replays and restores.
type Delta struct {
	FieldID string `json:"field_id"`
	Seq     uint64 `json:"seq"`
	Method  string `json:"method"`
	// Failed lists the sensors this event destroyed (empty at Seq 0).
	Failed []int `json:"failed,omitempty"`
	// Placed sensors restore full K-coverage; Placements in placement
	// order is the actuation route, exactly as in a stateless plan.
	Placed       int     `json:"placed"`
	Placements   []Point `json:"placements"`
	TotalSensors int     `json:"total_sensors"`
	Messages     int     `json:"messages,omitempty"`
	Rounds       int     `json:"rounds,omitempty"`
	CoverageK    float64 `json:"coverage_k"`
	Covered      bool    `json:"fully_covered"`
}

// Info is the session metadata returned by Manager.Get and Create.
type Info struct {
	FieldID string `json:"field_id"`
	Tenant  string `json:"tenant"`
	// Seq is the last delta sequence number (0 = only the initial plan).
	Seq          uint64  `json:"seq"`
	TotalSensors int     `json:"total_sensors"`
	CoverageK    float64 `json:"coverage_k"`
	Covered      bool    `json:"fully_covered"`
	// Evicted reports that the session currently lives as its sealed
	// record; the next event restores it transparently.
	Evicted bool `json:"evicted"`
}

// Sentinel errors, mapped to HTTP statuses by the service layer.
var (
	// ErrNotFound: no session with that field ID for that tenant (404).
	ErrNotFound = errors.New("session: field not found")
	// ErrExists: Create with a field ID the tenant already uses (409).
	ErrExists = errors.New("session: field already exists")
	// ErrTenantSessions: the tenant's session quota is exhausted (429).
	ErrTenantSessions = errors.New("session: tenant session quota exhausted")
	// ErrTenantBusy: the tenant holds its whole share of the admission
	// gate's bound (429).
	ErrTenantBusy = errors.New("session: tenant event quota exhausted")
	// ErrSaturated: the admission gate's bound or the global session
	// table is full (503).
	ErrSaturated = errors.New("session: saturated")
	// ErrClosed: the manager is shut down (503).
	ErrClosed = errors.New("session: manager closed")
	// ErrRestore: an evicted session's record failed to restore, which
	// only a fault on the server's side can cause (500). The error
	// returned wraps both it and the restore error.
	ErrRestore = errors.New("session: evicted record failed to restore")
)

// state is one live session. Only the goroutine holding its field's
// lock touches it, which keeps the facade's rule that a Deployment is
// not used concurrently.
type state struct {
	tenant string
	id     string
	// method is the planner of the initial deploy and every repair.
	method string
	d      *decor.Deployment
	seq    uint64
	// ring holds the most recent deltas (including Seq 0) for SSE
	// catch-up reads; the manager gives it ringDeltas entries.
	ring []Delta
	// subs receive every new delta; a subscriber that falls behind is
	// dropped (closed channel tells the SSE handler to hang up).
	subs    map[int]chan Delta
	nextSub int
	// lastUse is advisory wall-clock for idle eviction only; it never
	// influences any output.
	lastUse int64 // unix nanos, from Manager.now
}

// newState builds the session and runs its initial restoration deploy
// (Seq 0): the session invariant is "fully K-covered between events",
// so creation restores coverage exactly like a stateless /v1/plan.
func newState(ctx context.Context, tenant, id string, spec Spec, ringCap int) (*state, Delta, error) {
	d, err := spec.build()
	if err != nil {
		return nil, Delta{}, err
	}
	st := &state{
		tenant: tenant,
		id:     id,
		method: spec.Method,
		d:      d,
		subs:   map[int]chan Delta{},
	}
	rep, err := d.DeployContext(ctx, spec.Method)
	if err != nil {
		return nil, Delta{}, err
	}
	delta := st.deltaFrom(rep, nil)
	st.pushRing(delta, ringCap)
	return st, delta, nil
}

// apply destroys one failure batch and repairs the hole incrementally on
// the live coverage map. FailSensors checks every ID before it destroys
// any, so a rejected event (an unknown or repeated sensor ID) leaves the
// session byte-identical to before.
func (st *state) apply(ctx context.Context, failed []int, ringCap int) (Delta, error) {
	if len(failed) == 0 {
		return Delta{}, fmt.Errorf("session: event with no failed sensors")
	}
	if err := st.d.FailSensors(failed...); err != nil {
		return Delta{}, err
	}
	rep, err := st.d.DeployContext(ctx, st.method)
	if err != nil {
		return Delta{}, err
	}
	st.seq++
	// The delta keeps a copy: failed is the caller's, often a reused
	// scratch slice, and the ring and the subscribers must never see a
	// later event's IDs.
	delta := st.deltaFrom(rep, append([]int(nil), failed...))
	st.pushRing(delta, ringCap)
	for key, ch := range st.subs {
		select {
		case ch <- delta:
		default:
			// Subscriber fell behind its buffer: drop it. The closed
			// channel tells the reader to reconnect with from_seq.
			close(ch)
			delete(st.subs, key)
		}
	}
	return delta, nil
}

// closeSubs closes and forgets every subscriber channel.
func (st *state) closeSubs() {
	for key, ch := range st.subs {
		close(ch)
		delete(st.subs, key)
	}
}

func (st *state) deltaFrom(rep decor.Report, failed []int) Delta {
	placements := make([]Point, len(rep.Placements))
	for i, p := range rep.Placements {
		placements[i] = Point{X: p.X, Y: p.Y}
	}
	return Delta{
		FieldID:      st.id,
		Seq:          st.seq,
		Method:       rep.Method,
		Failed:       failed,
		Placed:       rep.Placed,
		Placements:   placements,
		TotalSensors: rep.TotalSensors,
		Messages:     rep.Messages,
		Rounds:       rep.Rounds,
		CoverageK:    st.d.Coverage(st.d.Params().K),
		Covered:      st.d.FullyCovered(),
	}
}

func (st *state) pushRing(d Delta, cap int) {
	if cap <= 0 {
		return
	}
	st.ring = append(st.ring, d)
	if len(st.ring) > cap {
		st.ring = st.ring[len(st.ring)-cap:]
	}
}

func (st *state) info(evicted bool) Info {
	return Info{
		FieldID:      st.id,
		Tenant:       st.tenant,
		Seq:          st.seq,
		TotalSensors: st.d.NumSensors(),
		CoverageK:    st.d.Coverage(st.d.Params().K),
		Covered:      st.d.FullyCovered(),
		Evicted:      evicted,
	}
}
