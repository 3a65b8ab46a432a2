// Property and fuzz driver for the DECOR protocols under fault
// injection. Lives in package protocol_test so it can use the
// internal/chaos harness (which imports protocol) without a cycle.
package protocol_test

import (
	"encoding/json"
	"strings"
	"testing"

	"decor/internal/chaos"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/network"
	"decor/internal/protocol"
	"decor/internal/sim"
	"decor/internal/sim/invariant"
)

// The headline property: for ANY seeded fault plan inside the severity
// bound (sim.FaultPlan.Bounded, DESIGN.md §10), both deployment
// protocols converge to full k-coverage with every invariant green.
func TestDeploymentConvergesUnderBoundedFaults(t *testing.T) {
	for _, arch := range []string{chaos.ArchGrid, chaos.ArchVoronoi} {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(100); seed < 108; seed++ {
				sc := chaos.DefaultScenario(arch, seed)
				if !sc.Plan.Bounded() {
					t.Fatalf("seed %d: harness produced an unbounded plan", seed)
				}
				v := chaos.Run(sc)
				if !v.Converged {
					t.Errorf("seed %d: deployment did not reach k-coverage", seed)
				}
				for _, viol := range v.Violations {
					t.Errorf("seed %d: %s", seed, viol)
				}
			}
		})
	}
}

// Identical seeds must reproduce byte-identical traces — not just equal
// hashes: this drives the same grid scenario twice at the engine level
// and compares the raw trace text.
func TestChaosTraceByteIdentical(t *testing.T) {
	runTrace := func() string {
		field := geom.Square(30)
		pts := lowdisc.Halton{}.Points(80, field)
		m := coverage.New(field, pts, 4, 2)
		eng := sim.NewEngine(0.05)
		var b strings.Builder
		eng.SetTraceLine(func(line []byte) {
			// Full precision: any divergence in event times shows up.
			b.Write(line)
			json.NewEncoder(&b).Encode(eng.Now())
		})
		eng.SetLossRate(0.15, 99)
		eng.SetFaults(sim.FaultPlan{
			Seed:      99,
			DelayProb: 0.3, DelayMax: 2,
			DupProb: 0.2,
			Burst:   &sim.GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8},
			Until:   30,
			Crashes: []sim.Crash{
				{Actor: protocol.LeaderActor(3), At: 4, RestartAt: 9},
				{Actor: protocol.LeaderActor(10), At: 6},
			},
			Partitions: []sim.Partition{{
				From: 2, Until: 12,
				A: []int{protocol.LeaderActor(0), protocol.LeaderActor(1)},
				B: []int{protocol.LeaderActor(6), protocol.LeaderActor(7)},
			}},
		})
		w := protocol.NewWorld(m, 5, eng, 1)
		protocol.RunDeployment(w)
		return b.String()
	}
	t1, t2 := runTrace(), runTrace()
	if t1 != t2 {
		t.Fatal("two runs of the identical chaos scenario produced different traces")
	}
	if len(t1) == 0 {
		t.Fatal("empty trace")
	}
}

// Leader election under chaos: a two-cell heartbeat cluster survives a
// permanent leader crash plus a healed partition, and after the fault
// horizon plus detection timeout every live node agrees on one live
// leader per cell.
func TestLeaderAgreementUnderCrashAndPartition(t *testing.T) {
	net := network.New()
	eng := sim.NewEngine(0.05)
	cfg := func(cell int) protocol.Config {
		return protocol.Config{Tc: 1, TimeoutMult: 3, Cell: cell}
	}
	// Cell 0 members 1..3 clustered bottom-left, cell 1 members 4..6
	// top-right; rc keeps each cell mutually reachable and the cells
	// mutually silent.
	positions := map[int]geom.Point{
		1: geom.Pt(5, 5), 2: geom.Pt(8, 5), 3: geom.Pt(5, 8),
		4: geom.Pt(90, 90), 5: geom.Pt(93, 90), 6: geom.Pt(90, 93),
	}
	var views []invariant.LeaderView
	for id := 1; id <= 6; id++ {
		cell := 0
		if id >= 4 {
			cell = 1
		}
		net.Add(id, positions[id], 4, 10)
		n := protocol.NewNode(id, net, cfg(cell))
		views = append(views, n)
	}
	eng.SetFaults(sim.FaultPlan{
		Seed: 5,
		// Node 1 (the standing leader of cell 0) dies for good at t=5;
		// nodes 2 and 3 are partitioned from each other during [3, 10).
		Crashes:    []sim.Crash{{Actor: 1, At: 5}},
		Partitions: []sim.Partition{{From: 3, Until: 10, A: []int{2}, B: []int{3}}},
	})
	for id := 1; id <= 6; id++ {
		eng.Register(id, views[id-1].(*protocol.Node))
	}
	eng.Run(40)

	ident := func(id int) int { return id }
	check := invariant.LeaderAgreement(eng, views, ident)
	if vs := check(eng.Now()); len(vs) != 0 {
		t.Fatalf("post-quiescence leader disagreement: %v", vs)
	}
	// Cell 0 must have failed over from the crashed node 1 to node 2.
	for _, v := range views[1:3] {
		if got := v.Leader(eng.Now()); got != 2 {
			t.Errorf("node %d elects %d, want failover to 2", v.ID(), got)
		}
	}
	if eng.Stats().PartitionDropped == 0 {
		t.Error("partition cut no heartbeats; scenario too weak")
	}
	if eng.Stats().Crashes != 1 {
		t.Errorf("crashes = %d, want 1", eng.Stats().Crashes)
	}
}

// A deliberately broken run — self-healing disabled by permanently
// crashing every monitor — must be caught by the invariant checker with
// the offending virtual time and actor. This pins the regression-
// detection path end to end through the harness.
func TestChaosHarnessCatchesDisabledSelfHealing(t *testing.T) {
	sc := chaos.DefaultScenario(chaos.ArchSelfheal, 21)
	sc.Plan = sim.FaultPlan{Seed: 21}
	for _, id := range sc.ActorUniverse() {
		sc.Plan.Crashes = append(sc.Plan.Crashes, sim.Crash{Actor: id, At: 0.25})
	}
	v := chaos.Run(sc)
	if v.OK {
		t.Fatal("disabled self-healing produced a clean verdict")
	}
	viol := (*invariant.Violation)(nil)
	for i := range v.Violations {
		if v.Violations[i].Invariant == invariant.KCoverageName {
			viol = &v.Violations[i]
		}
	}
	if viol == nil {
		t.Fatalf("no k-coverage violation recorded: %+v", v.Violations)
	}
	if viol.Time <= 0 {
		t.Errorf("violation lacks a virtual time: %+v", viol)
	}
	if viol.Actor < protocol.MonitorActor(0) {
		t.Errorf("violation does not name the responsible monitor: %+v", viol)
	}
}

// FuzzProtocolUnderFaults decodes arbitrary bytes into a bounded chaos
// scenario and requires a clean, reproducible verdict. The seed corpus
// runs on every `go test`; `go test -fuzz=FuzzProtocolUnderFaults
// ./internal/protocol` explores further.
func FuzzProtocolUnderFaults(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 13, 120, 80, 60, 1, 30, 100, 5, 240})
	f.Add([]byte{0, 9, 9, 9, 9, 9, 9, 9, 9, 255, 255, 127, 1, 255, 255, 255, 255, 3, 40, 1, 10, 1, 1, 90, 70})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 60, 10, 110, 0, 2, 17, 0, 0, 1, 33, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := chaos.DecodeScenario(data)
		if !sc.Plan.Bounded() {
			t.Fatalf("decoder produced an unbounded plan: %+v", sc.Plan)
		}
		v1 := chaos.Run(sc)
		if !v1.Converged {
			t.Errorf("arch %s seed %d: no convergence under bounded plan", sc.Arch, sc.Seed)
		}
		for _, viol := range v1.Violations {
			t.Errorf("arch %s seed %d: %s", sc.Arch, sc.Seed, viol)
		}
		v2 := chaos.Run(sc)
		if v1.TraceHash != v2.TraceHash || v1.TraceLines != v2.TraceLines {
			t.Errorf("arch %s seed %d: replay diverged (%s/%d vs %s/%d)",
				sc.Arch, sc.Seed, v1.TraceHash, v1.TraceLines, v2.TraceHash, v2.TraceLines)
		}
	})
}
