package sim

import (
	"reflect"
	"testing"
)

// echoActor records everything it sees and can schedule chains.
type echoActor struct {
	started  bool
	messages []Message
	timers   []string
	onStart  func(*Context)
	onMsg    func(*Context, Message)
	onTimer  func(*Context, string)
}

func (a *echoActor) OnStart(ctx *Context) {
	a.started = true
	if a.onStart != nil {
		a.onStart(ctx)
	}
}
func (a *echoActor) OnMessage(ctx *Context, m Message) {
	a.messages = append(a.messages, m)
	if a.onMsg != nil {
		a.onMsg(ctx, m)
	}
}
func (a *echoActor) OnTimer(ctx *Context, tag string) {
	a.timers = append(a.timers, tag)
	if a.onTimer != nil {
		a.onTimer(ctx, tag)
	}
}

func TestRegisterStartsActor(t *testing.T) {
	e := NewEngine(0.1)
	a := &echoActor{}
	e.Register(1, a)
	if !a.started {
		t.Error("OnStart not invoked")
	}
	if !e.Alive(1) || e.Alive(2) {
		t.Error("Alive wrong")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	e := NewEngine(0)
	e.Register(1, &echoActor{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate register should panic")
		}
	}()
	e.Register(1, &echoActor{})
}

func TestMessageDeliveryWithLatency(t *testing.T) {
	e := NewEngine(0.5)
	recv := &echoActor{}
	var sentAt Time
	sender := &echoActor{onStart: func(ctx *Context) {
		sentAt = ctx.Now()
		ctx.Send(2, "ping", 42)
	}}
	e.Register(2, recv)
	e.Register(1, sender)
	e.Run(Inf)
	if len(recv.messages) != 1 {
		t.Fatalf("received %d messages", len(recv.messages))
	}
	m := recv.messages[0]
	if m.From != 1 || m.Kind != "ping" || m.Payload.(int) != 42 {
		t.Errorf("message = %+v", m)
	}
	if e.Now()-sentAt != 0.5 {
		t.Errorf("delivery latency = %v", e.Now()-sentAt)
	}
	st := e.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.SentBy[1] != 1 {
		t.Errorf("SentBy = %v", st.SentBy)
	}
}

func TestSendToDeadIsDropped(t *testing.T) {
	e := NewEngine(1)
	victim := &echoActor{}
	e.Register(2, victim)
	sender := &echoActor{onStart: func(ctx *Context) { ctx.Send(2, "x", nil) }}
	e.Register(1, sender)
	e.Kill(2)
	e.Run(Inf)
	if len(victim.messages) != 0 {
		t.Error("dead actor received a message")
	}
	if st := e.Stats(); st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Sends to unknown actors also drop.
	e2 := NewEngine(0)
	e2.Register(1, &echoActor{onStart: func(ctx *Context) { ctx.Send(99, "x", nil) }})
	e2.Run(Inf)
	if st := e2.Stats(); st.Dropped != 1 {
		t.Errorf("unknown target stats = %+v", st)
	}
}

func TestTimers(t *testing.T) {
	e := NewEngine(0)
	a := &echoActor{onStart: func(ctx *Context) {
		ctx.SetTimer(2, "late")
		ctx.SetTimer(1, "early")
	}}
	e.Register(1, a)
	e.Run(Inf)
	if len(a.timers) != 2 || a.timers[0] != "early" || a.timers[1] != "late" {
		t.Errorf("timers = %v", a.timers)
	}
	if e.Now() != 2 {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestNegativeTimerPanics(t *testing.T) {
	e := NewEngine(0)
	defer func() {
		if recover() == nil {
			t.Error("negative timer should panic")
		}
	}()
	e.Register(1, &echoActor{onStart: func(ctx *Context) { ctx.SetTimer(-1, "bad") }})
}

func TestRunUntilBounds(t *testing.T) {
	e := NewEngine(0)
	count := 0
	a := &echoActor{}
	a.onTimer = func(ctx *Context, tag string) {
		count++
		ctx.SetTimer(1, "tick") // infinite chain
	}
	a.onStart = func(ctx *Context) { ctx.SetTimer(1, "tick") }
	e.Register(1, a)
	e.Run(10)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	e.Run(20)
	if count != 20 {
		t.Errorf("ticks = %d, want 20", count)
	}
}

func TestDeterministicOrderingOfSimultaneousEvents(t *testing.T) {
	run := func() []Message {
		e := NewEngine(1)
		recv := &echoActor{}
		e.Register(9, recv)
		e.Register(1, &echoActor{onStart: func(ctx *Context) {
			ctx.Send(9, "a", nil)
			ctx.Send(9, "b", nil)
			ctx.Send(9, "c", nil)
		}})
		e.Run(Inf)
		return recv.messages
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatal("missing messages")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			t.Fatal("non-deterministic ordering")
		}
	}
	// FIFO among same-time sends.
	if a[0].Kind != "a" || a[1].Kind != "b" || a[2].Kind != "c" {
		t.Errorf("order = %v %v %v", a[0].Kind, a[1].Kind, a[2].Kind)
	}
}

func TestNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative latency should panic")
		}
	}()
	NewEngine(-1)
}

func TestTraceHook(t *testing.T) {
	e := NewEngine(0)
	var lines []string
	e.SetTraceLine(func(line []byte) { lines = append(lines, string(line)) })
	e.Register(2, &echoActor{})
	e.Register(1, &echoActor{onStart: func(ctx *Context) {
		ctx.Send(2, "hi", nil)
		ctx.SetTimer(1, "t")
	}})
	e.Run(Inf)
	want := []string{"0.000000000 deliver hi 1->2\n", "1.000000000 timer t @1\n"}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("trace lines = %q, want %q", lines, want)
	}
}

func TestRunAdvancesToUntilWhenIdle(t *testing.T) {
	e := NewEngine(0)
	e.Run(5)
	if e.Now() != 5 {
		t.Errorf("idle Run should advance clock to until, got %v", e.Now())
	}
}

// TestStatsCopyIsolation is the regression test for the Stats()
// shallow-copy aliasing bug: the returned Stats must not share its
// SentBy map with the engine, in either direction.
func TestStatsCopyIsolation(t *testing.T) {
	e := NewEngine(0)
	e.Register(2, &echoActor{})
	e.Register(1, &echoActor{onStart: func(ctx *Context) { ctx.Send(2, "a", nil) }})
	st := e.Stats()
	if st.SentBy[1] != 1 {
		t.Fatalf("SentBy = %v", st.SentBy)
	}

	// Caller mutation must not leak into the engine.
	st.SentBy[1] = 99
	st.SentBy[7] = 5
	if got := e.Stats().SentBy; got[1] != 1 || got[7] != 0 {
		t.Errorf("caller mutation leaked into engine: %v", got)
	}

	// Later engine activity must not appear in a held copy.
	held := e.Stats()
	e.Register(3, &echoActor{onStart: func(ctx *Context) {
		ctx.Send(2, "b", nil)
		ctx.Send(2, "c", nil)
	}})
	e.Run(Inf)
	if held.SentBy[3] != 0 || held.Sent != 1 {
		t.Errorf("held copy sees live updates: %+v", held)
	}
}
