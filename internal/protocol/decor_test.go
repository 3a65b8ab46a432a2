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

func eventWorld(t *testing.T, k, initial int, seed uint64) *World {
	t.Helper()
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	m := coverage.New(field, pts, 4, k)
	r := rng.New(seed)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	eng := sim.NewEngine(0.05)
	return NewWorld(m, 5, eng, 1.0)
}

func TestEventDrivenReachesFullCoverage(t *testing.T) {
	for _, k := range []int{1, 3} {
		w := eventWorld(t, k, 50, 1)
		seeds := RunDeployment(w)
		if !w.M.FullyCovered() {
			t.Fatalf("k=%d: event-driven DECOR did not finish", k)
		}
		if len(w.PlacementLog) == 0 {
			t.Fatalf("k=%d: no placements", k)
		}
		if seeds != 0 {
			t.Errorf("k=%d: unexpected seeds on a 50-sensor field: %d", k, seeds)
		}
		if w.MessagesSent == 0 {
			t.Errorf("k=%d: no placement notifications sent", k)
		}
	}
}

func TestEventDrivenBootstrapsFromEmpty(t *testing.T) {
	w := eventWorld(t, 1, 0, 1)
	seeds := RunDeployment(w)
	if !w.M.FullyCovered() {
		t.Fatal("empty-field bootstrap failed")
	}
	if seeds == 0 {
		t.Error("expected at least one base-station seed")
	}
}

func TestEventDrivenDeterministic(t *testing.T) {
	run := func() (int, int) {
		w := eventWorld(t, 2, 40, 7)
		RunDeployment(w)
		return len(w.PlacementLog), w.MessagesSent
	}
	p1, m1 := run()
	p2, m2 := run()
	if p1 != p2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", p1, m1, p2, m2)
	}
}

// Leader beliefs must never exceed ground truth (no double counting) and
// must equal it once the event queue drains.
func TestLeaderBeliefConvergesToTruth(t *testing.T) {
	w := eventWorld(t, 2, 50, 3)
	RunDeployment(w)
	w.Eng.Run(sim.Inf) // drain any in-flight notifications
	for cell, l := range w.leaders {
		for _, i := range l.pts {
			truth := w.M.Count(i)
			if l.counts[i] > truth {
				t.Fatalf("cell %d: belief %d exceeds truth %d at point %d",
					cell, l.counts[i], truth, i)
			}
			if l.counts[i] != truth {
				t.Fatalf("cell %d: belief %d != truth %d at point %d after drain",
					cell, l.counts[i], truth, i)
			}
		}
		if !l.done {
			t.Errorf("cell %d: leader still active after completion", cell)
		}
	}
}

// The asynchronous execution should land in the same cost regime as the
// round-based model: same coverage, node counts within a factor, message
// counts of the same order.
func TestEventDrivenMatchesRoundBasedRegime(t *testing.T) {
	// Round-based.
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	mRound := coverage.New(field, pts, 4, 2)
	r := rng.New(5)
	for id := 0; id < 50; id++ {
		mRound.AddSensor(id, r.PointInRect(field))
	}
	resRound := (core.GridDECOR{CellSize: 5}).Deploy(mRound, rng.New(6), core.Options{})

	// Event-driven on an identical field.
	w := eventWorld(t, 2, 50, 5)
	RunDeployment(w)

	placedRound := resRound.NumPlaced()
	placedEvent := len(w.PlacementLog)
	if placedEvent < placedRound/2 || placedEvent > placedRound*2 {
		t.Errorf("placed: event %d vs round %d — different regimes", placedEvent, placedRound)
	}
	if w.MessagesSent < resRound.Messages/4 || w.MessagesSent > resRound.Messages*4 {
		t.Errorf("messages: event %d vs round %d — different regimes", w.MessagesSent, resRound.Messages)
	}
}

func TestWorldValidation(t *testing.T) {
	field := geom.Square(10)
	m := coverage.New(field, nil, 4, 1)
	defer func() {
		if recover() == nil {
			t.Error("non-positive period should panic")
		}
	}()
	NewWorld(m, 5, sim.NewEngine(0), 0)
}

func TestSeedOnCoveredFieldIsNoop(t *testing.T) {
	w := eventWorld(t, 1, 0, 1)
	RunDeployment(w)
	if w.Seed() {
		t.Error("Seed on a covered field should report false")
	}
}
