package invariant

import (
	"strings"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/sim"
	"decor/internal/sim/simtest"
)

func smallMap(k int) *coverage.Map {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(9, 9)}
	return coverage.New(geom.Square(10), pts, 2, k)
}

func TestKCoverageReportsDeficitWithActor(t *testing.T) {
	m := smallMap(1)
	m.AddSensor(0, geom.Pt(1, 1)) // covers point 0 only
	check := KCoverage(m, func(point int) int { return 100 + point })
	vs := check(3.5)
	if len(vs) != 2 {
		t.Fatalf("violations = %d, want 2 (points 1 and 2 uncovered)", len(vs))
	}
	v := vs[0]
	if v.Invariant != KCoverageName || v.Time != 3.5 || v.Actor != 101 {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.Detail, "point 1") {
		t.Errorf("detail does not name the point: %q", v.Detail)
	}
	// Cover everything: check goes quiet.
	m.AddSensor(1, geom.Pt(5, 5))
	m.AddSensor(2, geom.Pt(9, 9))
	if vs := check(4); len(vs) != 0 {
		t.Errorf("covered map still reports %v", vs)
	}
}

func TestAfterGatesCheck(t *testing.T) {
	m := smallMap(1) // fully deficient
	check := After(10, KCoverage(m, nil))
	if vs := check(9.99); len(vs) != 0 {
		t.Error("gated check fired before deadline")
	}
	if vs := check(10); len(vs) == 0 {
		t.Error("gated check silent after deadline")
	}
}

func TestBudget(t *testing.T) {
	m := smallMap(1)
	check := Budget(m, 2)
	m.AddSensor(0, geom.Pt(1, 1))
	m.AddSensor(1, geom.Pt(5, 5))
	if vs := check(1); len(vs) != 0 {
		t.Errorf("within budget: %v", vs)
	}
	m.AddSensor(2, geom.Pt(9, 9))
	vs := check(2)
	if len(vs) != 1 || vs[0].Invariant != BudgetName {
		t.Fatalf("budget breach not reported: %v", vs)
	}
}

func TestAccountingOnRealEngineUnderFaults(t *testing.T) {
	e := sim.NewEngine(0.1)
	e.SetLossRate(0.3, 1)
	e.SetFaults(sim.FaultPlan{Seed: 2, DupProb: 0.5, DelayProb: 0.5, DelayMax: 2, Until: 100})
	e.Register(2, &simtest.Recorder{})
	e.Register(1, &simtest.Recorder{Hooks: simtest.Hooks{OnStart: func(ctx *sim.Context) {
		for i := 0; i < 300; i++ {
			ctx.Send(2, "x", i)
		}
	}}})
	check := Accounting(e)
	e.Run(0.15) // mid-flight: pending messages balance the books
	if vs := check(e.Now()); len(vs) != 0 {
		t.Errorf("mid-run accounting: %v", vs)
	}
	e.Run(sim.Inf)
	if vs := check(e.Now()); len(vs) != 0 {
		t.Errorf("quiescent accounting: %v", vs)
	}
}

// stubNode implements LeaderView for election checks.
type stubNode struct{ id, cell, leader int }

func (s stubNode) ID() int               { return s.id }
func (s stubNode) Cell() int             { return s.cell }
func (s stubNode) Leader(_ sim.Time) int { return s.leader }

func electionEngine(ids ...int) *sim.Engine {
	e := sim.NewEngine(0)
	for _, id := range ids {
		e.Register(id, &simtest.Recorder{})
	}
	return e
}

func TestLeaderAgreement(t *testing.T) {
	ident := func(id int) int { return id }
	// Agreement: both cells name one live leader each.
	e := electionEngine(1, 2, 3, 4)
	nodes := []LeaderView{
		stubNode{1, 0, 1}, stubNode{2, 0, 1},
		stubNode{3, 1, 4}, stubNode{4, 1, 4},
	}
	if vs := LeaderAgreement(e, nodes, ident)(5); len(vs) != 0 {
		t.Errorf("agreement flagged: %v", vs)
	}
	// Split brain in cell 0.
	split := []LeaderView{stubNode{1, 0, 1}, stubNode{2, 0, 2}}
	vs := LeaderAgreement(e, split, ident)(6)
	if len(vs) != 1 || vs[0].Invariant != LeaderName || vs[0].Time != 6 {
		t.Fatalf("split brain not reported: %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "split-brain") {
		t.Errorf("detail = %q", vs[0].Detail)
	}
	// Dead elected leader.
	e.Kill(1)
	vs = LeaderAgreement(e, []LeaderView{stubNode{2, 0, 1}}, ident)(7)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "dead leader") {
		t.Fatalf("dead leader not reported: %v", vs)
	}
	// Dead nodes' own views are excluded entirely.
	vs = LeaderAgreement(e, []LeaderView{stubNode{1, 0, 1}}, ident)(8)
	if len(vs) != 0 {
		t.Errorf("dead node's view counted: %v", vs)
	}
}

func TestCheckerDedupKeepsFirstObservation(t *testing.T) {
	m := smallMap(1)
	c := New().Add(KCoverage(m, nil))
	c.RunAt(2)
	c.RunAt(5)
	vs := c.Violations()
	if len(vs) != 3 {
		t.Fatalf("violations = %d, want 3 (one per point, deduped across runs)", len(vs))
	}
	for _, v := range vs {
		if v.Time != 2 {
			t.Errorf("dedup kept later observation: %+v", v)
		}
	}
	if len(c.vs) == 0 {
		t.Error("OK() with violations")
	}
	if f := first(c, KCoverageName); f == nil || f.Time != 2 {
		t.Errorf("First = %+v", f)
	}
	if first(c, "nonexistent") != nil {
		t.Error("First on unknown invariant")
	}
}

func TestWatchRunsPeriodically(t *testing.T) {
	m := smallMap(1) // always deficient
	e := sim.NewEngine(0)
	c := New().Add(After(3, KCoverage(m, nil)))
	c.Watch(e, 1)
	e.Run(10)
	if len(c.vs) == 0 {
		t.Fatal("watchdog never fired")
	}
	// First observation at the first watchdog tick at/after the gate.
	if f := first(c, KCoverageName); f.Time != 3 {
		t.Errorf("first observation at t=%v, want 3", f.Time)
	}
}

func TestWatchValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive period should panic")
		}
	}()
	New().Watch(sim.NewEngine(0), 0)
}

// first returns the earliest-recorded violation of the named invariant,
// or nil.
func first(c *Checker, invariant string) *Violation {
	for i := range c.vs {
		if c.vs[i].Invariant == invariant {
			return &c.vs[i]
		}
	}
	return nil
}
