package sim

import (
	"testing"

	"decor/internal/obs"
)

// TestEngineFlightRecorder drives crashes, restarts, deliveries, timers,
// and dead-target drops through an engine wired to a flight recorder
// and checks the structured event stream mirrors the run.
func TestEngineFlightRecorder(t *testing.T) {
	fr := obs.NewFlightRecorder(128)
	e := NewEngine(0.25)
	e.SetFlight(fr)

	e.Register(1, &echoActor{onStart: func(ctx *Context) {
		ctx.Send(2, "ping", nil)
		ctx.SetTimer(1, "tick")
	}, onTimer: func(ctx *Context, tag string) {
		if ctx.Now() < 8 {
			ctx.Send(2, "late", nil) // actor 2 is dead 5..9: dropped
			ctx.SetTimer(2, tag)
		}
	}})
	e.Register(2, &echoActor{})
	e.SetFaults(FaultPlan{Crashes: []Crash{{Actor: 2, At: 5, RestartAt: 9}}})
	e.Run(Inf)

	evs := fr.Dump()
	if len(evs) == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	kinds := map[string]int{}
	for i, ev := range evs {
		kinds[ev.Kind]++
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("events not seq-ordered at %d", i)
		}
	}
	for _, want := range []string{"deliver", "timer", "crash", "restart", "drop"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in flight dump: %v", want, kinds)
		}
	}
	// Flight events carry only virtual time, so a re-run with a fresh
	// recorder replays the identical timeline (determinism for chaos).
	fr2 := obs.NewFlightRecorder(128)
	e2 := NewEngine(0.25)
	e2.SetFlight(fr2)
	e2.Register(1, &echoActor{onStart: func(ctx *Context) {
		ctx.Send(2, "ping", nil)
		ctx.SetTimer(1, "tick")
	}, onTimer: func(ctx *Context, tag string) {
		if ctx.Now() < 8 {
			ctx.Send(2, "late", nil)
			ctx.SetTimer(2, tag)
		}
	}})
	e2.Register(2, &echoActor{})
	e2.SetFaults(FaultPlan{Crashes: []Crash{{Actor: 2, At: 5, RestartAt: 9}}})
	e2.Run(Inf)
	evs2 := fr2.Dump()
	if len(evs2) != len(evs) {
		t.Fatalf("replay length %d != %d", len(evs2), len(evs))
	}
	for i := range evs {
		if evs[i] != evs2[i] {
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, evs[i], evs2[i])
		}
	}
}

// TestEngineWithoutFlightOrContext is the disabled path: no recorder and
// no trace hook — Run must behave exactly as before (guarded by the
// benchmark gate in make check as well).
func TestEngineWithoutFlightOrContext(t *testing.T) {
	e := NewEngine(0.5)
	e.Register(1, &echoActor{onStart: func(ctx *Context) {
		ctx.Send(1, "self", nil)
	}})
	if got := e.Run(Inf); got != 1 {
		t.Fatalf("processed = %d, want 1", got)
	}
}
