package admit

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBounds: a gate with n run slots admits Depth·n calls, a quarter of
// them per named tenant, and any number of anonymous ones up to the
// global bound.
func TestBounds(t *testing.T) {
	g := New(2)
	for i := 0; i < Depth/2; i++ {
		if err := g.Enter("a"); err != nil {
			t.Fatalf("tenant a, call %d: %v", i, err)
		}
	}
	if err := g.Enter("a"); !errors.Is(err, ErrTenant) {
		t.Fatalf("tenant a past its share: %v, want ErrTenant", err)
	}
	for i := Depth / 2; i < 2*Depth; i++ {
		if err := g.Enter(""); err != nil {
			t.Fatalf("anonymous call %d: %v", i, err)
		}
	}
	if err := g.Enter(""); !errors.Is(err, ErrSaturated) {
		t.Fatalf("past the admitted bound: %v, want ErrSaturated", err)
	}
	if err := g.Enter("b"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("tenant b past the admitted bound: %v, want ErrSaturated", err)
	}
	g.Leave("a")
	if err := g.Enter("b"); err != nil {
		t.Fatalf("tenant b once a call left: %v", err)
	}
}

// TestCloseDrainsAdmittedCalls: Close refuses new calls at once, lets an
// admitted call still take a run slot and finish, and reports the gate
// drained only when that call has left.
func TestCloseDrainsAdmittedCalls(t *testing.T) {
	g := New(1)
	if err := g.Enter("a"); err != nil {
		t.Fatal(err)
	}
	drained := g.Close()
	if !g.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := g.Enter("b"); !errors.Is(err, ErrClosed) {
		t.Errorf("Enter after Close: %v, want ErrClosed", err)
	}
	select {
	case <-drained:
		t.Fatal("drained while a call is admitted")
	default:
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatalf("an admitted call cannot run during the drain: %v", err)
	}
	g.Done()
	g.Leave("a")
	select {
	case <-drained:
	default:
		t.Fatal("not drained after the last call left")
	}
	if again := g.Close(); again != drained {
		t.Error("a second Close returned another channel")
	}
}

// TestRunHonoursContext: a call whose context has ended gets no slot even
// when one is free, and one waiting for a busy slot gives up when its
// context ends.
func TestRunHonoursContext(t *testing.T) {
	g := New(1)
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Run(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with an ended context: %v, want context.Canceled", err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := g.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run past its deadline on a busy slot: %v, want context.DeadlineExceeded", err)
	}
	g.Done()
}

// TestGateBooksBalanceUnderConcurrency: many goroutines Enter, Run, Done
// and Leave, with refusals of every kind mixed in and some calls whose
// context ended before their turn, while Close lands in the middle. No
// bound is ever exceeded, the drained channel closes only once no call
// is admitted, and afterwards the gate holds no admission, no slot and
// no tenant entry.
func TestGateBooksBalanceUnderConcurrency(t *testing.T) {
	const (
		slots   = 2
		callers = 32
	)
	g := New(slots)
	g.maxAdmitted, g.maxTenant = 12, 2 // small bounds, so refusals are frequent
	tenants := []string{"", "a", "b", "c"}
	var (
		inside, running, ran atomic.Int64
		perTenant            [4]atomic.Int64
		refused              sync.Map // error -> *atomic.Int64
		stop                 atomic.Bool
	)
	refusals := func(err error) *atomic.Int64 {
		n, _ := refused.LoadOrStore(err, new(atomic.Int64))
		return n.(*atomic.Int64)
	}
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	// until spins until cond holds, yielding to the callers.
	until := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				stop.Store(true)
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}

	// The burst starts against a gate whose admissions the test holds:
	// all of tenant c's share and the rest of the bound.
	held := map[string]int{}
	for _, tenant := range []string{"c", ""} {
		for g.Enter(tenant) == nil {
			held[tenant]++
		}
	}

	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			ti := i % len(tenants)
			tenant := tenants[ti]
			for j := 0; !stop.Load(); j++ {
				if err := g.Enter(tenant); err != nil {
					refusals(err).Add(1)
					runtime.Gosched() // let admitted calls progress, even on one CPU
					continue
				}
				if n := inside.Add(1); n > 12 {
					t.Errorf("%d calls admitted, bound 12", n)
				}
				if n := perTenant[ti].Add(1); tenant != "" && n > 2 {
					t.Errorf("tenant %s holds %d calls, share 2", tenant, n)
				}
				ctx := context.Background()
				if j%5 == 0 {
					ctx = ended
				}
				if err := g.Run(ctx); err == nil {
					if n := running.Add(1); n > slots {
						t.Errorf("%d calls running, %d slots", n, slots)
					}
					runtime.Gosched()
					running.Add(-1)
					ran.Add(1)
					g.Done()
				} else if ctx != ended {
					t.Errorf("Run with a live context: %v", err)
				}
				perTenant[ti].Add(-1)
				inside.Add(-1)
				g.Leave(tenant)
			}
		}(i)
	}

	until("the held gate refuses calls", func() bool {
		return refusals(ErrSaturated).Load() > 0 && refusals(ErrTenant).Load() > 0
	})
	for tenant, n := range held {
		for ; n > 0; n-- {
			g.Leave(tenant)
		}
	}
	until("calls run", func() bool { return ran.Load() >= 200 })
	drained := g.Close()
	select {
	case <-drained:
		if n := inside.Load(); n != 0 {
			t.Errorf("drained with %d calls admitted", n)
		}
	case <-time.After(10 * time.Second):
		stop.Store(true)
		t.Fatal("the gate never drained")
	}
	until("the closed gate refuses calls", func() bool { return refusals(ErrClosed).Load() > 0 })
	stop.Store(true)
	wg.Wait()

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.admitted != 0 || len(g.slots) != 0 || len(g.tenants) != 0 {
		t.Errorf("books after the burst: %d admitted, %d slots held, tenants %v; want all empty",
			g.admitted, len(g.slots), g.tenants)
	}
}
