package sim_test

import (
	"fmt"
	"testing"

	"decor/internal/sim"
	"decor/internal/sim/simtest"
)

func TestFaultPlanValidate(t *testing.T) {
	good := []sim.FaultPlan{
		{},
		{Seed: 1, DelayProb: 0.5, DelayMax: 2, Until: 10},
		{DupProb: 1, Until: 5},
		{Burst: &sim.GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.9}},
		{Crashes: []sim.Crash{{Actor: 1, At: 3, RestartAt: 5}}},
		{Partitions: []sim.Partition{{From: 1, Until: 2, A: []int{1}, B: []int{2}}}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %d should validate: %v", i, err)
		}
	}
	bad := []sim.FaultPlan{
		{DelayProb: -0.1},
		{DelayProb: 1.5},
		{DelayProb: 0.5, DelayMax: 0},
		{DelayMax: -1},
		{DupProb: 2},
		{Burst: &sim.GilbertElliott{PGoodToBad: 1.2}},
		{Crashes: []sim.Crash{{Actor: 1, At: -1}}},
		{Partitions: []sim.Partition{{From: 2, Until: 1, A: []int{1}, B: []int{2}}}},
		{Partitions: []sim.Partition{{From: 0, Until: 1, A: nil, B: []int{2}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d should be rejected", i)
		}
	}
}

func TestFaultPlanBounded(t *testing.T) {
	cases := []struct {
		name string
		plan sim.FaultPlan
		want bool
	}{
		{"zero plan", sim.FaultPlan{}, true},
		{"finite horizon", sim.FaultPlan{DelayProb: 0.3, DelayMax: 1, Until: 50}, true},
		{"no horizon", sim.FaultPlan{DelayProb: 0.3, DelayMax: 1}, false},
		{"burst with escape", sim.FaultPlan{Burst: &sim.GilbertElliott{PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 0.9}, Until: 50}, true},
		{"burst trap", sim.FaultPlan{Burst: &sim.GilbertElliott{PGoodToBad: 0.2, PBadToGood: 0.01, LossBad: 0.9}, Until: 50}, false},
		{"burst too lossy", sim.FaultPlan{Burst: &sim.GilbertElliott{PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 0.99}, Until: 50}, false},
		{"partition heals inside horizon", sim.FaultPlan{DupProb: 0.1, Until: 50,
			Partitions: []sim.Partition{{From: 1, Until: 40, A: []int{1}, B: []int{2}}}}, true},
		{"partition outlives horizon", sim.FaultPlan{DupProb: 0.1, Until: 50,
			Partitions: []sim.Partition{{From: 1, Until: 60, A: []int{1}, B: []int{2}}}}, false},
		{"permanent crash is fine", sim.FaultPlan{Crashes: []sim.Crash{{Actor: 3, At: 5}}}, true},
		{"invalid is unbounded", sim.FaultPlan{DelayProb: 2}, false},
	}
	for _, tc := range cases {
		if got := tc.plan.Bounded(); got != tc.want {
			t.Errorf("%s: Bounded() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSetFaultsRejectsInvalidPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid plan should panic")
		}
	}()
	sim.NewEngine(0).SetFaults(sim.FaultPlan{DelayProb: 2})
}

// Delay jitter must reorder independently delayed messages while leaving
// the send accounting intact.
func TestDelayJitterReorders(t *testing.T) {
	e := sim.NewEngine(0.1)
	e.SetFaults(sim.FaultPlan{Seed: 9, DelayProb: 0.5, DelayMax: 3, Until: 1000})
	recv := &simtest.Recorder{}
	e.Register(2, recv)
	e.Register(1, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
		for i := 0; i < 500; i++ {
			ctx.Send(2, fmt.Sprint(i), i)
		}
	}}})
	e.Run(sim.Inf)
	st := e.Stats()
	if st.Delayed == 0 {
		t.Fatal("no messages were delayed")
	}
	if st.Delivered != 500 {
		t.Fatalf("delivered = %d, want 500 (delay must not lose messages)", st.Delivered)
	}
	reordered := false
	for i, m := range recv.Messages {
		if m.Payload.(int) != i {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Error("independent delay jitter produced no reordering across 500 messages")
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	e := sim.NewEngine(0.1)
	e.SetFaults(sim.FaultPlan{Seed: 4, DupProb: 1, DelayMax: 1, Until: 1000})
	recv := &simtest.Recorder{}
	e.Register(2, recv)
	e.Register(1, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
		for i := 0; i < 100; i++ {
			ctx.Send(2, "x", i)
		}
	}}})
	e.Run(sim.Inf)
	st := e.Stats()
	if st.Sent != 100 || st.Duplicated != 100 {
		t.Fatalf("sent %d, duplicated %d, want 100/100", st.Sent, st.Duplicated)
	}
	if st.Delivered != 200 || len(recv.Messages) != 200 {
		t.Errorf("delivered %d (receiver saw %d), want 200", st.Delivered, len(recv.Messages))
	}
}

// The Gilbert-Elliott channel must lose roughly its stationary fraction
// and do so in bursts (consecutive losses far above the uniform-loss
// expectation for the same rate).
func TestGilbertElliottBurstLoss(t *testing.T) {
	ge := sim.GilbertElliott{PGoodToBad: 0.05, PBadToGood: 0.2, LossGood: 0.01, LossBad: 0.9}
	e := sim.NewEngine(0.001)
	e.SetFaults(sim.FaultPlan{Seed: 11, Burst: &ge, Until: sim.Time(1e18)})
	recv := &simtest.Recorder{}
	e.Register(2, recv)
	const total = 20000
	e.Register(1, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
		for i := 0; i < total; i++ {
			ctx.Send(2, "x", i)
		}
	}}})
	e.Run(sim.Inf)
	st := e.Stats()
	frac := float64(st.Lost) / total
	want := stationaryLoss(ge)
	if frac < want-0.05 || frac > want+0.05 {
		t.Errorf("burst loss fraction = %v, want ~%v", frac, want)
	}
	// Burstiness: the longest run of consecutively lost payloads should be
	// far beyond what uniform loss at the same rate plausibly produces.
	seen := make([]bool, total)
	for _, m := range recv.Messages {
		seen[m.Payload.(int)] = true
	}
	longest, cur := 0, 0
	for _, ok := range seen {
		if !ok {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	if longest < 8 {
		t.Errorf("longest loss burst = %d, expected bursty (>= 8) losses", longest)
	}
}

func TestPartitionCutsBothDirectionsThenHeals(t *testing.T) {
	e := sim.NewEngine(0.1)
	e.SetFaults(sim.FaultPlan{Partitions: []sim.Partition{
		{From: 0, Until: 10, A: []int{1}, B: []int{2}},
	}})
	timers := func(ctx *sim.Context) { ctx.SetTimer(5, "mid"); ctx.SetTimer(15, "late") }
	a := &simtest.Recorder{Hooks: simtest.Hooks{OnStart: timers,
		OnTimer: func(ctx *sim.Context, _ string) { ctx.Send(2, "p", nil) }}}
	b := &simtest.Recorder{Hooks: simtest.Hooks{OnStart: timers,
		OnTimer: func(ctx *sim.Context, _ string) { ctx.Send(1, "p", nil) }}}
	e.Register(1, a)
	e.Register(2, b)
	e.Register(3, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
		ctx.SetTimer(1, "go")
	}, OnTimer: func(ctx *sim.Context, _ string) {
		// Not a partition member: reaches both sides even mid-window.
		ctx.Send(1, "from3", nil)
		ctx.Send(2, "from3", nil)
	}}})
	e.Run(sim.Inf)
	st := e.Stats()
	if st.PartitionDropped != 2 {
		t.Errorf("partition dropped %d, want 2 (one per direction mid-window)", st.PartitionDropped)
	}
	// Each side: one "from3" plus the healed post-window "p".
	for name, r := range map[string]*simtest.Recorder{"a": a, "b": b} {
		if len(r.Messages) != 2 {
			t.Errorf("%s received %d messages, want 2 (outsider + healed)", name, len(r.Messages))
		}
	}
}

func TestCrashAndRestartSchedule(t *testing.T) {
	e := sim.NewEngine(0)
	ticks := 0
	victim := &simtest.Recorder{}
	victim.Hooks.OnStart = func(ctx *sim.Context) { ctx.SetTimer(1, "tick") }
	victim.Hooks.OnTimer = func(ctx *sim.Context, _ string) {
		ticks++
		ctx.SetTimer(1, "tick")
	}
	e.Register(1, victim)
	e.SetFaults(sim.FaultPlan{Crashes: []sim.Crash{{Actor: 1, At: 5.5, RestartAt: 20}}})
	e.Run(100)
	st := e.Stats()
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", st.Crashes, st.Restarts)
	}
	// 5 ticks before the crash (t=1..5), none during [5.5, 20), then the
	// restarted chain ticks at t=21..100.
	if want := 5 + 80; ticks != want {
		t.Errorf("ticks = %d, want %d (crash window must silence the timer chain)", ticks, want)
	}
	if !e.Alive(1) {
		t.Error("actor should be alive after restart")
	}
}

func TestPermanentCrashSilencesActor(t *testing.T) {
	e := sim.NewEngine(0.5)
	recv := &simtest.Recorder{}
	e.Register(2, recv)
	e.Register(1, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
		ctx.SetTimer(10, "late") // fires after the crash: must be dropped
	}, OnTimer: func(ctx *sim.Context, _ string) {
		ctx.Send(2, "ghost", nil)
	}}})
	e.SetFaults(sim.FaultPlan{Crashes: []sim.Crash{{Actor: 1, At: 3}}})
	e.Run(sim.Inf)
	if len(recv.Messages) != 0 {
		t.Error("crashed actor sent a message")
	}
	if e.Alive(1) {
		t.Error("permanently crashed actor reported alive")
	}
	if st := e.Stats(); st.Restarts != 0 {
		t.Errorf("restarts = %d, want 0", st.Restarts)
	}
}

// Message accounting must close at all times, with in-flight messages as
// the balancing term — the invariant the checker package asserts.
func TestAccountingClosesMidRunUnderFaults(t *testing.T) {
	e := sim.NewEngine(0.2)
	e.SetLossRate(0.2, 3)
	e.SetFaults(sim.FaultPlan{
		Seed: 8, DelayProb: 0.4, DelayMax: 5, DupProb: 0.3,
		Burst:      &sim.GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8},
		Until:      1000,
		Partitions: []sim.Partition{{From: 2, Until: 8, A: []int{1}, B: []int{2}}},
	})
	e.Register(2, &simtest.Recorder{})
	e.Register(1, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
		ctx.SetTimer(0, "burst")
	}, OnTimer: func(ctx *sim.Context, tag string) {
		for i := 0; i < 50; i++ {
			ctx.Send(2, "x", i)
		}
		if ctx.Now() < 20 {
			ctx.SetTimer(1, "burst")
		}
	}}})
	check := func(when string) {
		st := e.Stats()
		resolved := st.Delivered + st.Dropped + st.Lost + st.PartitionDropped
		if st.Sent+st.Duplicated != resolved+e.PendingMessages() {
			t.Fatalf("%s: accounting open: sent %d + dup %d != resolved %d + pending %d",
				when, st.Sent, st.Duplicated, resolved, e.PendingMessages())
		}
	}
	for _, until := range []sim.Time{1, 3, 7, 12, 30} {
		e.Run(until)
		check(fmt.Sprintf("t=%v", until))
	}
	e.Run(sim.Inf)
	check("quiescence")
	if e.PendingMessages() != 0 {
		t.Error("pending messages after quiescence")
	}
}

// Identical plans must replay byte-identically: same trace lines, same
// stats.
func TestFaultsDeterministic(t *testing.T) {
	run := func() (string, sim.Stats) {
		e := sim.NewEngine(0.1)
		e.SetLossRate(0.1, 5)
		e.SetFaults(sim.FaultPlan{
			Seed: 21, DelayProb: 0.3, DelayMax: 2, DupProb: 0.2,
			Burst:      &sim.GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.4, LossBad: 0.7},
			Until:      500,
			Crashes:    []sim.Crash{{Actor: 3, At: 4, RestartAt: 9}},
			Partitions: []sim.Partition{{From: 2, Until: 6, A: []int{1}, B: []int{2, 3}}},
		})
		var trace string
		e.SetTraceLine(func(line []byte) { trace += string(line) })
		for id := 1; id <= 3; id++ {
			id := id
			e.Register(id, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
				ctx.SetTimer(sim.Time(id), "go")
			}, OnTimer: func(ctx *sim.Context, _ string) {
				for peer := 1; peer <= 3; peer++ {
					if peer != id {
						ctx.Send(peer, "hi", nil)
					}
				}
				if ctx.Now() < 30 {
					ctx.SetTimer(1, "go")
				}
			}}})
		}
		e.Run(sim.Inf)
		return trace, e.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatal("fault-injected trace not byte-identical across identical runs")
	}
	s1.SentBy, s2.SentBy = nil, nil
	if fmt.Sprintf("%+v", s1) != fmt.Sprintf("%+v", s2) {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if s1.Crashes != 1 || s1.Restarts != 1 || s1.PartitionDropped == 0 {
		t.Errorf("plan mechanisms not exercised: %+v", s1)
	}
}

// stationaryLoss returns the long-run loss fraction of the channel: each
// state's loss weighted by its stationary probability.
func stationaryLoss(g sim.GilbertElliott) float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom == 0 {
		return g.LossGood
	}
	piBad := g.PGoodToBad / denom
	return (1-piBad)*g.LossGood + piBad*g.LossBad
}
