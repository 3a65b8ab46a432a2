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

func voronoiWorld(t *testing.T, k, initial int, seed uint64) *VoronoiWorld {
	t.Helper()
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	m := coverage.New(field, pts, 4, k)
	r := rng.New(seed)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	eng := sim.NewEngine(0.05)
	return NewVoronoiWorld(m, 8, eng, 1.0)
}

func TestVoronoiEventDrivenFullCoverage(t *testing.T) {
	for _, k := range []int{1, 3} {
		w := voronoiWorld(t, k, 50, 1)
		RunVoronoiDeployment(w)
		if !w.M.FullyCovered() {
			t.Fatalf("k=%d: not fully covered", k)
		}
		if len(w.PlacementLog) == 0 || w.MessagesSent == 0 {
			t.Fatalf("k=%d: placements %d, messages %d", k, len(w.PlacementLog), w.MessagesSent)
		}
	}
}

func TestVoronoiEventDrivenBootstraps(t *testing.T) {
	w := voronoiWorld(t, 1, 0, 1)
	seeds := RunVoronoiDeployment(w)
	if !w.M.FullyCovered() {
		t.Fatal("bootstrap failed")
	}
	if seeds == 0 {
		t.Error("expected base-station seeds on an empty field")
	}
}

func TestVoronoiEventDrivenDeterministic(t *testing.T) {
	run := func() (int, int) {
		w := voronoiWorld(t, 2, 40, 9)
		RunVoronoiDeployment(w)
		return len(w.PlacementLog), w.MessagesSent
	}
	p1, m1 := run()
	p2, m2 := run()
	if p1 != p2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", p1, m1, p2, m2)
	}
}

func TestVoronoiNodesRetire(t *testing.T) {
	w := voronoiWorld(t, 2, 50, 3)
	RunVoronoiDeployment(w)
	w.Eng.Run(sim.Inf)
	// After full coverage and drain, every node must either be done or
	// have no believed deficits left.
	for id, n := range w.nodes {
		if len(n.ownedDeficient()) != 0 {
			t.Errorf("node %d still believes deficits exist", id)
		}
	}
}

func TestVoronoiBeliefUnderTruth(t *testing.T) {
	w := voronoiWorld(t, 2, 50, 5)
	RunVoronoiDeployment(w)
	// Belief counts must never exceed ground truth.
	for _, n := range w.nodes {
		for i := 0; i < w.M.NumPoints(); i++ {
			p := w.M.Point(i)
			if n.pos.Dist2(p) > w.Rc*w.Rc {
				continue
			}
			if n.believedCount(p) > w.M.Count(i) {
				t.Fatalf("node %d overcounts point %d: %d > %d",
					n.id, i, n.believedCount(p), w.M.Count(i))
			}
		}
	}
}

func TestVoronoiEventDrivenSameRegimeAsRoundBased(t *testing.T) {
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	mRound := coverage.New(field, pts, 4, 2)
	r := rng.New(5)
	for id := 0; id < 50; id++ {
		mRound.AddSensor(id, r.PointInRect(field))
	}
	resRound := (core.VoronoiDECOR{Rc: 8}).Deploy(mRound, rng.New(6), core.Options{})

	w := voronoiWorld(t, 2, 50, 5)
	RunVoronoiDeployment(w)

	placedEvent := len(w.PlacementLog)
	placedRound := resRound.NumPlaced()
	if placedEvent < placedRound/2 || placedEvent > placedRound*2 {
		t.Errorf("placed: event %d vs round %d — different regimes", placedEvent, placedRound)
	}
}

func TestVoronoiWorldValidation(t *testing.T) {
	field := geom.Square(10)
	m := coverage.New(field, nil, 4, 1)
	for _, bad := range []func(){
		func() { NewVoronoiWorld(m, 8, sim.NewEngine(0), 0) },
		func() { NewVoronoiWorld(m, 1, sim.NewEngine(0), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}
