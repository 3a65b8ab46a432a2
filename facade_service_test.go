package decor

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// The tests in this file back the decor-serve service layer: the facade
// behaviours it relies on (unknown-method errors, validation boundaries,
// Clone independence, context cancellation) and the concurrency contract
// documented on Deployment, exercised under -race.

func TestDeployUnknownMethod(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	if _, err := d.Deploy("no-such-method"); err == nil {
		t.Fatal("Deploy with an unknown method must fail")
	}
	if _, err := d.Deploy(""); err == nil {
		t.Fatal("Deploy with an empty method must fail")
	}
}

func TestParamsNormalizeBoundaries(t *testing.T) {
	base := Params{FieldSide: 50, K: 1, Rs: 4, NumPoints: 100}
	cases := []struct {
		name string
		mut  func(*Params)
		ok   bool
	}{
		{"zero field", func(p *Params) { p.FieldSide = 0 }, false},
		{"negative field", func(p *Params) { p.FieldSide = -10 }, false},
		{"k zero", func(p *Params) { p.K = 0 }, false},
		{"k negative", func(p *Params) { p.K = -3 }, false},
		{"rs zero", func(p *Params) { p.Rs = 0 }, false},
		{"rc below rs", func(p *Params) { p.Rc = 3.999 }, false},
		{"rc equals rs", func(p *Params) { p.Rc = 4 }, true}, // §2 lower bound is inclusive
		{"zero points", func(p *Params) { p.NumPoints = 0 }, false},
		{"one point", func(p *Params) { p.NumPoints = 1 }, true},
		{"k one", func(p *Params) { p.K = 1 }, true},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		_, err := NewDeployment(p)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpectedly rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted %+v", tc.name, p)
		}
	}
}

func TestAddSensorIDAndFailSensors(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	if err := d.AddSensorID(5, Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddSensorID(5, Point{X: 2, Y: 2}); err == nil {
		t.Error("duplicate sensor id accepted")
	}
	if err := d.AddSensorID(-1, Point{}); err == nil {
		t.Error("negative sensor id accepted")
	}
	// FailSensors is atomic: one unknown reference destroys nothing.
	if err := d.FailSensors(5, 99); err == nil {
		t.Error("unknown sensor id accepted")
	}
	if d.NumSensors() != 1 {
		t.Errorf("failed FailSensors still destroyed sensors: %d left", d.NumSensors())
	}
	// A repeated reference is rejected the same way.
	if err := d.FailSensors(5, 5); err == nil {
		t.Error("repeated sensor id accepted")
	}
	if d.NumSensors() != 1 {
		t.Errorf("rejected repeated id still destroyed sensors: %d left", d.NumSensors())
	}
	if err := d.FailSensors(5); err != nil {
		t.Fatal(err)
	}
	if d.NumSensors() != 0 {
		t.Errorf("FailSensors left %d sensors", d.NumSensors())
	}
}

func TestCloneIsIndependentAndEquivalent(t *testing.T) {
	d, _ := NewDeployment(quickParams(2))
	d.ScatterRandom(30)

	// Clone then run the same deterministic operation on both: results
	// must match (shared RNG state at clone time) and neither run may
	// leak into the other.
	c := d.Clone()
	rd, err := d.Deploy("grid-small")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := c.Deploy("grid-small")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd, rc) {
		t.Errorf("clone diverged from original:\n%+v\n%+v", rd, rc)
	}
	if d.NumSensors() != c.NumSensors() {
		t.Errorf("sensor counts diverged: %d vs %d", d.NumSensors(), c.NumSensors())
	}

	// Mutating the clone must not touch the original.
	before := d.NumSensors()
	c.ScatterRandom(10)
	if d.NumSensors() != before {
		t.Error("clone mutation leaked into the original")
	}
}

// TestConcurrentPlansAreIndependent is the -race regression test for the
// documented concurrency contract: N goroutines each take a private
// Clone of one shared template and Deploy concurrently. Any hidden
// shared mutable state shows up under the race detector, and all runs
// must agree placement-for-placement.
func TestConcurrentPlansAreIndependent(t *testing.T) {
	tmpl, _ := NewDeployment(quickParams(2))
	tmpl.ScatterRandom(40)

	const n = 8
	reps := make([]Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := tmpl.Clone() // cloned before the goroutine starts: tmpl stays confined
		go func(i int, d *Deployment) {
			defer wg.Done()
			reps[i], errs[i] = d.Deploy("voronoi-big")
		}(i, d)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reps[i], reps[0]) {
			t.Errorf("goroutine %d diverged from goroutine 0", i)
		}
	}
	if reps[0].Placed == 0 {
		t.Error("test is vacuous: nothing was placed")
	}
}

func TestDeployContextCancellation(t *testing.T) {
	// An already-cancelled context stops the run before (or mid) placement
	// and surfaces the context error.
	d, _ := NewDeployment(quickParams(3))
	d.ScatterRandom(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := d.DeployContext(ctx, "centralized")
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Placed != 0 {
		t.Errorf("cancelled-before-start run placed %d sensors", rep.Placed)
	}

	// A context that never fires leaves the run identical to plain Deploy.
	a, _ := NewDeployment(quickParams(2))
	a.ScatterRandom(20)
	b := a.Clone()
	ra, err := a.DeployContext(context.Background(), "grid-big")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Deploy("grid-big")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Error("DeployContext(Background) differs from Deploy")
	}
}
