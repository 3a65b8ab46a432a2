// Package admit is decor-serve's admission gate. The service holds one
// for every /v1/plan or /v1/repair cache miss, and the session manager
// one for every field-session call; a call passes through on its
// caller's goroutine:
//
//	if err := g.Enter(tenant); err != nil { ... } // 503 or 429
//	defer g.Leave(tenant)
//	if err := g.Run(ctx); err != nil { ... }      // the deadline ran out waiting
//	defer g.Done()
//	... plan ...
//
// The gate holds two bounds, both fixed by its run-slot count, which
// production sets to GOMAXPROCS: at most that many calls run at once, so
// planning never oversubscribes the processors, and at most Depth times
// that many are admitted, running or waiting, so the backlog a burst can
// build is bounded by the machine, never by offered load. A named tenant
// may hold a quarter of the admitted bound, so one noisy tenant cannot
// take the capacity everyone else needs; anonymous calls ("" tenant)
// share only the global bound, so a single-tenant deployment that sends
// no tenant header keeps all of it.
package admit

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Depth is how many calls the gate admits per run slot, running or
// waiting.
const Depth = 256

// The gate's refusals. The service answers ErrTenant with 429 and the
// other two with 503, each with Retry-After.
var (
	// ErrSaturated: the admitted bound is full.
	ErrSaturated = errors.New("admit: admission bound saturated")
	// ErrTenant: the tenant holds its whole share of the admitted bound.
	ErrTenant = errors.New("admit: tenant admission share exhausted")
	// ErrClosed: the gate is closed for shutdown.
	ErrClosed = errors.New("admit: gate closed")
)

// Gate bounds how many calls run and how many wait. All methods are safe
// for concurrent use.
type Gate struct {
	slots       chan struct{} // one token per running call
	maxAdmitted int
	maxTenant   int

	mu       sync.Mutex
	admitted int
	tenants  map[string]int // admitted calls per named tenant; no zero entries
	closed   bool
	drained  chan struct{} // closed once the gate is closed and empty
}

// New returns a gate with the given number of run slots, which must be
// positive.
func New(slots int) *Gate {
	return &Gate{
		slots:       make(chan struct{}, slots),
		maxAdmitted: Depth * slots,
		maxTenant:   Depth * slots / 4,
		tenants:     map[string]int{},
		drained:     make(chan struct{}),
	}
}

// Enter admits one call for tenant ("" is anonymous) without blocking, or
// refuses it. An admitted call ends with Leave.
func (g *Gate) Enter(tenant string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.closed:
		return ErrClosed
	case tenant != "" && g.tenants[tenant] >= g.maxTenant:
		return ErrTenant
	case g.admitted >= g.maxAdmitted:
		return ErrSaturated
	}
	g.admitted++
	if tenant != "" {
		g.tenants[tenant]++
	}
	return nil
}

// Leave ends a call that Enter admitted for tenant.
func (g *Gate) Leave(tenant string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.admitted--
	if tenant != "" {
		if n := g.tenants[tenant] - 1; n > 0 {
			g.tenants[tenant] = n
		} else {
			delete(g.tenants, tenant)
		}
	}
	if g.closed && g.admitted == 0 {
		close(g.drained)
	}
}

// Run waits for a run slot until ctx ends, and returns ctx's error if it
// ends first; a call whose context has already ended gets no slot. A
// call that got one gives it back with Done. Run works on a closed gate,
// so admitted calls finish during a drain.
//
// A call that waited is handed its slot by Done, and the runtime runs a
// goroutine woken that way next, ahead of all queued on Done's processor
// and in the same time slice. It yields once, or back-to-back plans pass
// the processors among themselves and starve request handlers.
func (g *Gate) Run(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.slots <- struct{}{}:
		runtime.Gosched()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done gives back the run slot Run took.
func (g *Gate) Done() { <-g.slots }

// Close refuses every later Enter with ErrClosed and returns a channel
// that is closed once no call is admitted. It may be called more than
// once.
func (g *Gate) Close() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.closed = true
		if g.admitted == 0 {
			close(g.drained)
		}
	}
	return g.drained
}

// Closed reports whether Close has been called.
func (g *Gate) Closed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}
