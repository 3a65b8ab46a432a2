package decor

import (
	"math"
	"strings"
	"testing"
)

func quickParams(k int) Params {
	return Params{FieldSide: 50, K: k, Rs: 4, NumPoints: 500, Seed: 11}
}

func TestNewDeploymentValidation(t *testing.T) {
	bad := []Params{
		{},
		{FieldSide: 100},              // K missing
		{FieldSide: 100, K: 1},        // Rs missing
		{FieldSide: 100, K: 1, Rs: 4}, // NumPoints missing
		{FieldSide: 100, K: 1, Rs: 4, NumPoints: 10, Rc: 1}, // Rc < Rs
		{FieldSide: -1, K: 1, Rs: 4, NumPoints: 10},         // bad field
		{FieldSide: 100, K: 1, Rs: 4, NumPoints: 10, Generator: "nope"},
	}
	for i, p := range bad {
		if _, err := NewDeployment(p); err == nil {
			t.Errorf("params %d should be rejected: %+v", i, p)
		}
	}
	d, err := NewDeployment(quickParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Params().Rc != 8 {
		t.Errorf("Rc default = %v, want 2*Rs", d.Params().Rc)
	}
	if d.Params().Generator != "halton" {
		t.Errorf("generator default = %q", d.Params().Generator)
	}
}

// TestNewDeploymentRejectsNonFiniteGeometry: NaN and +Inf pass a bare
// "<= 0" check, and a field built from them places nothing without an
// error. -Inf must stay rejected.
func TestNewDeploymentRejectsNonFiniteGeometry(t *testing.T) {
	for _, field := range []string{"FieldSide", "Rs", "Rc"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := Params{FieldSide: 100, K: 1, Rs: 4, NumPoints: 10}
			switch field {
			case "FieldSide":
				p.FieldSide = v
			case "Rs":
				p.Rs = v
			case "Rc":
				p.Rc = v
			}
			_, err := NewDeployment(p)
			switch {
			case err == nil:
				t.Errorf("%s = %v accepted", field, v)
			case !math.IsInf(v, -1) && !strings.Contains(err.Error(), field+" must be positive and finite"):
				t.Errorf("%s = %v: error %q, want %q", field, v, err, field+" must be positive and finite")
			}
		}
	}
}

func TestAddScatterAndSensors(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	id := d.AddSensor(Point{X: 10, Y: 10})
	if id != 0 {
		t.Errorf("first id = %d", id)
	}
	ids := d.ScatterRandom(9)
	if len(ids) != 9 || d.NumSensors() != 10 {
		t.Errorf("scatter failed: %v, total %d", ids, d.NumSensors())
	}
	ss := d.Sensors()
	if len(ss) != 10 || ss[0].ID != 0 || !samePoint(ss[0].Pos, Point{X: 10, Y: 10}) {
		t.Errorf("Sensors() = %+v", ss[:1])
	}
}

func samePoint(a, b Point) bool { return a.X == b.X && a.Y == b.Y }

func TestDeployAllMethods(t *testing.T) {
	for _, method := range MethodNames() {
		d, _ := NewDeployment(quickParams(2))
		d.ScatterRandom(40)
		rep, err := d.Deploy(method)
		if err != nil {
			t.Fatalf("Deploy(%s): %v", method, err)
		}
		if !d.FullyCovered() || d.Coverage(2) != 1 {
			t.Errorf("%s: not fully covered", method)
		}
		if rep.Placed == 0 || rep.TotalSensors != d.NumSensors() {
			t.Errorf("%s: report inconsistent: %+v", method, rep)
		}
	}
	d, _ := NewDeployment(quickParams(1))
	if _, err := d.Deploy("bogus"); err == nil {
		t.Error("unknown method should error")
	}
}

func TestDeployIsDeterministicAcrossInstances(t *testing.T) {
	run := func() int {
		d, _ := NewDeployment(quickParams(2))
		d.ScatterRandom(40)
		rep, _ := d.Deploy("grid-small")
		return rep.Placed
	}
	if run() != run() {
		t.Error("equal seeds should give identical deployments")
	}
}

func TestFailureAndRestoration(t *testing.T) {
	d, _ := NewDeployment(quickParams(2))
	d.ScatterRandom(40)
	if _, err := d.Deploy("centralized"); err != nil {
		t.Fatal(err)
	}
	before := d.NumSensors()
	dead := d.FailArea(Point{X: 25, Y: 25}, 12)
	if len(dead) == 0 {
		t.Fatal("area failure killed nothing")
	}
	if d.NumSensors() != before-len(dead) {
		t.Error("failed sensors not removed")
	}
	if d.FullyCovered() {
		t.Error("field should have lost coverage")
	}
	rep, err := d.Deploy("voronoi-small")
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyCovered() || rep.Placed == 0 {
		t.Error("restoration failed")
	}
}

func TestFailRandomFraction(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	d.ScatterRandom(100)
	dead := d.FailRandom(0.3)
	if len(dead) != 30 {
		t.Errorf("failed %d, want 30", len(dead))
	}
	if d.NumSensors() != 70 {
		t.Errorf("survivors = %d", d.NumSensors())
	}
}

func TestRedundantAndCoverageLevels(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	// Pile sensors at one spot: all but one redundant for the points they
	// cover.
	d.AddSensor(Point{X: 25, Y: 25})
	d.AddSensor(Point{X: 25, Y: 25.1})
	red := d.Redundant()
	if len(red) != 1 {
		t.Errorf("redundant = %v", red)
	}
	if c1, c2 := d.Coverage(1), d.Coverage(2); c1 <= 0 || c2 > c1 {
		t.Errorf("coverage levels inconsistent: %v %v", c1, c2)
	}
}

func TestConnectivityCorollary(t *testing.T) {
	p := quickParams(2)
	p.FieldSide = 25
	p.NumPoints = 200
	d, _ := NewDeployment(p)
	if _, err := d.Deploy("centralized"); err != nil {
		t.Fatal(err)
	}
	// Full 2-coverage with Rc = 2·Rs must give a >= 2-connected network.
	if got := d.Connectivity(); got < 2 {
		t.Errorf("connectivity = %d, want >= K = 2", got)
	}
}

func TestRendering(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	d.ScatterRandom(10)
	if out := d.ASCII(40); !strings.Contains(out, "*") {
		t.Error("ASCII missing sensors")
	}
	if svg := d.SVG(); !strings.HasPrefix(svg, "<svg") {
		t.Error("SVG malformed")
	}
}

func TestRunFigureQuick(t *testing.T) {
	out, err := RunFigure("fig13", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig13") || !strings.Contains(out, "centralized") {
		t.Errorf("figure table malformed:\n%s", out)
	}
	if _, err := RunFigure("fig99", true); err == nil {
		t.Error("unknown figure should error")
	}
}
