package localize

import (
	"math"
	"testing"

	"decor/internal/geom"
	"decor/internal/network"
	"decor/internal/rng"
)

// denseNetwork builds a connected random network with rc-range links.
func denseNetwork(n int, side, rc float64, seed uint64) *network.Network {
	net := network.New()
	r := rng.New(seed)
	for id := 0; id < n; id++ {
		net.Add(id, r.PointInRect(geom.Square(side)), rc/2, rc)
	}
	return net
}

func TestMultilaterateExact(t *testing.T) {
	truth := geom.Pt(3, 4)
	anchors := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}
	dists := make([]float64, len(anchors))
	for i, a := range anchors {
		dists[i] = a.Dist(truth)
	}
	got, ok := Multilaterate(anchors, dists)
	if !ok || got.Dist(truth) > 1e-9 {
		t.Errorf("Multilaterate = %v, %v; want %v", got, ok, truth)
	}
}

func TestMultilaterateDegenerate(t *testing.T) {
	// Collinear anchors cannot fix a position.
	anchors := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}}
	if _, ok := Multilaterate(anchors, []float64{1, 2, 3}); ok {
		t.Error("collinear anchors should fail")
	}
	if _, ok := Multilaterate(anchors[:2], []float64{1, 2}); ok {
		t.Error("two anchors should fail")
	}
	if _, ok := Multilaterate(anchors, []float64{1}); ok {
		t.Error("mismatched lengths should fail")
	}
}

func TestDVHopNeedsThreeAnchors(t *testing.T) {
	net := denseNetwork(30, 50, 15, 1)
	if _, err := DVHop(net, []int{0, 1}); err == nil {
		t.Error("two anchors should error")
	}
	net.Fail(2)
	if _, err := DVHop(net, []int{0, 1, 2}); err == nil {
		t.Error("dead anchor should not count")
	}
}

func TestDVHopLocalizesDenseNetwork(t *testing.T) {
	const side, rc = 60.0, 12.0
	net := denseNetwork(150, side, rc, 7)
	// Anchors at spread positions: pick the nodes closest to three
	// corners and the center for good geometry.
	anchorTargets := []geom.Point{{X: 5, Y: 5}, {X: 55, Y: 5}, {X: 5, Y: 55}, {X: 55, Y: 55}, {X: 30, Y: 30}}
	var anchors []int
	for _, tgt := range anchorTargets {
		best, bestD := -1, math.Inf(1)
		for _, id := range net.AliveIDs() {
			if d := net.Node(id).Pos.Dist2(tgt); d < bestD {
				best, bestD = id, d
			}
		}
		anchors = append(anchors, best)
	}
	res, err := DVHop(net, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if res.HopLength <= 0 || res.HopLength > rc {
		t.Errorf("hop length = %v, want in (0, rc]", res.HopLength)
	}
	localized := len(res.Estimates)
	if localized < 100 {
		t.Fatalf("localized only %d/150 nodes", localized)
	}
	meanErr, perRc := EvaluateAccuracy(net, &res)
	// DV-hop standard accuracy: mean error well under one communication
	// radius on a dense random network.
	if perRc > 1.0 {
		t.Errorf("mean error %v (%.2f rc) too large", meanErr, perRc)
	}
	// Every estimate must fall in (or very near) the field.
	grown := geom.Square(side).Inset(-rc)
	for id, est := range res.Estimates {
		if !grown.Contains(est.Pos) {
			t.Errorf("node %d estimated far outside the field: %v", id, est.Pos)
		}
		if est.Error != net.Node(id).Pos.Dist(est.Pos) {
			t.Errorf("node %d error not filled correctly", id)
		}
	}
}

func TestDVHopDisconnectedNodesUnlocalized(t *testing.T) {
	net := denseNetwork(40, 40, 12, 3)
	// An isolated node far from everyone.
	net.Add(999, geom.Pt(39.5, 39.5), 1, 0.5)
	res, err := DVHop(net, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range res.Unlocalized {
		if id == 999 {
			found = true
		}
	}
	if !found {
		t.Error("isolated node should be unlocalized")
	}
	if _, ok := res.Estimates[999]; ok {
		t.Error("isolated node must not have an estimate")
	}
}

func TestEvaluateAccuracyEmpty(t *testing.T) {
	res := Result{Estimates: map[int]Estimate{}}
	if a, b := EvaluateAccuracy(network.New(), &res); a != 0 || b != 0 {
		t.Error("empty accuracy should be zero")
	}
}

// End-to-end with the DECOR assumption: positions estimated by DV-hop
// are good enough to drive coverage restoration decisions — the
// estimated-position coverage map deviates from the true one only
// modestly.
func TestDVHopPositionsUsableForCoverage(t *testing.T) {
	const side, rc, rs = 50.0, 12.0, 6.0
	net := denseNetwork(120, side, rc, 11)
	res, err := DVHop(net, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	meanErr, _ := EvaluateAccuracy(net, &res)
	// With mean position error below rs, a point believed covered by an
	// estimated sensor position is usually truly covered by the real
	// one; require the precondition.
	if meanErr > rs {
		t.Skipf("network too sparse for this assertion (err %v)", meanErr)
	}
	agree, total := 0, 0
	probe := rng.New(5)
	for i := 0; i < 500; i++ {
		p := probe.PointInRect(geom.Square(side))
		trueCov, estCov := false, false
		for id, est := range res.Estimates {
			if net.Node(id).Pos.Dist(p) <= rs {
				trueCov = true
			}
			if est.Pos.Dist(p) <= rs {
				estCov = true
			}
		}
		total++
		if trueCov == estCov {
			agree++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.7 {
		t.Errorf("coverage agreement %v too low for restoration decisions", frac)
	}
}
