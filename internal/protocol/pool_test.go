package protocol

import (
	"testing"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
	"decor/internal/sim"
)

// drain kills every node and runs the queue dry, so every in-flight
// heartbeat delivery resolves (dropped at a dead actor still releases
// its pool reference) and the pools reach true quiescence.
func drain(eng *sim.Engine, nodes []*Node) {
	for _, nd := range nodes {
		eng.Kill(nd.ID())
	}
	eng.Run(sim.Inf)
}

// TestPoolNoLeakAtQuiescence: after the queue drains, every heartbeat
// box has been released back to its pool — outstanding is exactly zero
// for every node, under clean delivery AND under loss.
func TestPoolNoLeakAtQuiescence(t *testing.T) {
	for _, loss := range []float64{0, 0.4} {
		eng, _, nodes := buildCluster(6, Config{Tc: 1, TimeoutMult: 3, Cell: -1})
		eng.SetLossRate(loss, 99)
		eng.Run(40)
		drain(eng, nodes)
		if n := eng.PendingMessages(); n != 0 {
			t.Fatalf("loss=%v: %d messages still pending after drain", loss, n)
		}
		for _, nd := range nodes {
			if nd.pool.outstanding != 0 {
				t.Errorf("loss=%v: node %d leaked %d heartbeat boxes",
					loss, nd.ID(), nd.pool.outstanding)
			}
		}
	}
}

// TestPoolRefcountUnderDuplication: with every message duplicated, the
// engine retains one extra reference per duplicate and releases each
// delivery independently — no over-release panic, no leak, and the
// message books still balance.
func TestPoolRefcountUnderDuplication(t *testing.T) {
	eng, _, nodes := buildCluster(6, Config{Tc: 1, TimeoutMult: 3, Cell: -1})
	eng.SetLossRate(0.25, 7)
	eng.SetFaults(sim.FaultPlan{
		Seed:      11,
		DupProb:   1,
		DelayProb: 0.5,
		DelayMax:  0.4,
		Until:     1000,
	})
	eng.Run(40)
	drain(eng, nodes)
	for _, nd := range nodes {
		if nd.pool.outstanding != 0 {
			t.Errorf("node %d leaked %d boxes under DupProb=1", nd.ID(), nd.pool.outstanding)
		}
	}
	st := eng.Stats()
	if st.Duplicated == 0 {
		t.Fatal("DupProb=1 produced no duplicates — the retain path was never exercised")
	}
	if got := st.Delivered + st.Dropped + st.Lost + st.PartitionDropped; got != st.Sent+st.Duplicated {
		t.Errorf("books unbalanced: delivered+dropped+lost+partition=%d, sent+dup=%d", got, st.Sent+st.Duplicated)
	}
}

// TestPoolPoisonCatchesAliasing: released boxes are overwritten with a
// sentinel, so a receiver that retained a pooled payload past OnMessage
// would read garbage. The protocol copies during OnMessage, so a
// poisoned run's ledger must be byte-equal to a clean run's — and free
// of the sentinel.
func TestPoolPoisonCatchesAliasing(t *testing.T) {
	run := func(poison bool) []*Node {
		eng, _, nodes := buildCluster(5, Config{Tc: 1, TimeoutMult: 3, Cell: 3, EpochLen: 10})
		for _, nd := range nodes {
			nd.pool.poison = poison
		}
		eng.SetFaults(sim.FaultPlan{Seed: 5, DupProb: 0.5, Until: 1000})
		eng.Run(40)
		return nodes
	}
	clean, poisoned := run(false), run(true)
	for i := range poisoned {
		for _, p := range poisoned[i].peers {
			if p.cell == poisonedCell {
				t.Fatalf("node %d ledger aliases a released heartbeat box", i)
			}
		}
		for j := range clean {
			if i == j {
				continue
			}
			cp, _ := peerPos(clean[i], j)
			pp, ok := peerPos(poisoned[i], j)
			if !ok || cp != pp {
				t.Errorf("node %d position for %d diverged under poisoning: %v vs %v", i, j, cp, pp)
			}
		}
	}
}

// selfhealSteadyState builds a deployed self-healing field and runs it
// past its start-up transient, returning the engine at heartbeat
// steady state.
func selfhealSteadyState() (*MonitoredField, *sim.Engine) {
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	m := coverage.New(field, pts, 4, 2)
	r := rng.New(1)
	for id := 0; id < 40; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	(core.Centralized{}).Deploy(m, rng.New(2), core.Options{})
	eng := sim.NewEngine(0.01)
	f := NewMonitoredField(m, eng, 5, 10, 3)
	f.Start()
	eng.Run(100) // warm-up: ledgers built, scratch buffers sized
	return f, eng
}

// TestSelfhealRoundAllocations pins the alloc purge: a steady-state
// heartbeat/detection round over the whole monitored field must not
// allocate. The bound is exact (0), not a ratio — the flattened ledgers
// and shared counts scratch leave nothing to allocate, and any
// regression (a map rebuild, a fresh survey slice) fails immediately.
func TestSelfhealRoundAllocations(t *testing.T) {
	f, eng := selfhealSteadyState()
	next := eng.Now()
	avg := testing.AllocsPerRun(20, func() {
		next += f.Tc
		eng.Run(next)
	})
	if avg > 0 {
		t.Errorf("steady-state selfheal round allocates %.1f times, want 0", avg)
	}
}

// TestHeartbeatRoundAllocations pins the pooled-heartbeat path: a
// steady-state protocol round (broadcast + delivery + timeout sweep)
// across a warm cluster reuses pooled boxes and scratch buffers and
// must not allocate.
func TestHeartbeatRoundAllocations(t *testing.T) {
	eng, _, _ := buildCluster(8, Config{Tc: 1, TimeoutMult: 3, Cell: -1})
	eng.Run(50) // warm-up: pools populated, peer ledgers complete
	next := eng.Now()
	avg := testing.AllocsPerRun(20, func() {
		next++
		eng.Run(next)
	})
	if avg > 0 {
		t.Errorf("steady-state heartbeat round allocates %.1f times, want 0", avg)
	}
}
