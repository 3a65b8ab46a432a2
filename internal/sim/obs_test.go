package sim

import (
	"testing"

	"decor/internal/obs"
)

// TestEngineInstrumentation checks the engine's obs wiring: per-event
// counters and the queue-depth gauge, read as deltas of the process
// registry (no internal/sim test runs in parallel).
func TestEngineInstrumentation(t *testing.T) {
	reg := obs.Default()
	before := reg.Snapshot()
	e := NewEngine(0.5)

	e.Register(2, &echoActor{})
	e.Register(1, &echoActor{onStart: func(ctx *Context) {
		ctx.Send(2, "ping", nil)
		ctx.Send(99, "void", nil) // dropped: unknown target
		ctx.SetTimer(1, "tick")
	}})
	if got := reg.Gauge(obs.SimQueueDepth).Value(); got != 3 {
		t.Errorf("queue depth after scheduling = %g, want 3", got)
	}
	e.Run(Inf)

	snap := reg.Snapshot()
	want := map[string]int64{
		obs.SimEvents:    3,
		obs.SimSent:      2,
		obs.SimDelivered: 1,
		obs.SimDropped:   1,
		obs.SimLost:      0,
		obs.SimTimers:    1,
	}
	for name, v := range want {
		if got := snap.Counters[name] - before.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if got := snap.Gauges[obs.SimQueueDepth]; got != 0 {
		t.Errorf("final queue depth = %g, want 0", got)
	}
}
