package sim

import (
	"fmt"
	"testing"

	"decor/internal/obs"
)

// benchActor is a heartbeat-like workload: a periodic timer that
// broadcasts a small message to a fixed peer set — the shape of the
// protocol traffic (heartbeats to 1-hop neighborhoods) that dominates
// every figure sweep and chaos run.
type benchActor struct {
	peers  []int
	period Time
}

func (a *benchActor) OnStart(ctx *Context) {
	// De-phase like protocol.Node so simultaneous wakeups don't pile up.
	phase := Time(float64(ctx.id%17) / 17.0 * float64(a.period))
	ctx.SetTimer(phase, "tick")
}

func (a *benchActor) OnMessage(*Context, Message) {}

func (a *benchActor) OnTimer(ctx *Context, tag string) {
	for _, p := range a.peers {
		ctx.Send(p, "hb", nil)
	}
	ctx.SetTimer(a.period, "tick")
}

// benchEngine builds the standard benchmark world: n actors in a ring,
// each heartbeating to its 4 nearest ring neighbors every virtual second.
func benchEngine(n int) *Engine {
	e := NewEngine(0.05)
	for id := 0; id < n; id++ {
		peers := []int{
			(id + 1) % n, (id + 2) % n,
			(id + n - 1) % n, (id + n - 2) % n,
		}
		e.Register(id, &benchActor{peers: peers, period: 1})
	}
	return e
}

// BenchmarkEngineRun measures the event-loop hot path end to end: one op
// drives a 64-actor heartbeat network for 25 virtual seconds (~8k timer
// events and ~32k message deliveries per op). This is the engine-side
// baseline BENCH_sim.json commits and scripts/benchstat.sh compares.
func BenchmarkEngineRun(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("actors=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				e := benchEngine(n)
				events = e.Run(25)
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// BenchmarkEngineRunRecorded is BenchmarkEngineRun/actors=64 with a
// flight recorder attached: the price of structured event capture
// on every delivery and timer. scripts/benchstat.sh compares this against
// the recorder-disabled run to measure tracing overhead; the disabled
// path itself is gated against the committed baseline.
func BenchmarkEngineRunRecorded(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		fr := obs.NewFlightRecorder(4096)
		e := benchEngine(64)
		e.SetFlight(fr)
		events = e.Run(25)
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkEngineRunFaulted is the same workload under a bounded fault
// plan (delay + duplication + burst loss), exercising the chaos delivery
// branches the plain benchmark skips.
func BenchmarkEngineRunFaulted(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		e := benchEngine(64)
		e.SetLossRate(0.05, 42)
		e.SetFaults(FaultPlan{
			Seed:      42,
			DelayProb: 0.2,
			DelayMax:  0.5,
			DupProb:   0.1,
			Burst:     &GilbertElliott{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.6},
			Until:     20,
			Crashes:   []Crash{{Actor: 3, At: 5, RestartAt: 12}, {Actor: 9, At: 8}},
		})
		events = e.Run(25)
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkEngineSchedule isolates the queue push/pop cycle: one op
// schedules and drains 1024 timer events through a single actor.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(0)
	drain := &echoActor{}
	e.Register(1, drain)
	e.Run(Inf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &Context{eng: e, id: 1}
		for j := 0; j < 1024; j++ {
			ctx.SetTimer(Time(j%7), "t")
		}
		e.Run(Inf)
		drain.timers = drain.timers[:0]
	}
}
