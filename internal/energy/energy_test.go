package energy

import (
	"math"
	"sort"
	"testing"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

func TestModelCosts(t *testing.T) {
	m := Default()
	// TX at distance 0 equals pure electronics cost, which equals RX.
	if got, want := m.TxCost(0), m.RxCost(); got != want {
		t.Errorf("TxCost(0) = %v, RxCost = %v", got, want)
	}
	// TX grows quadratically with distance.
	d1, d2 := m.TxCost(10)-m.TxCost(0), m.TxCost(20)-m.TxCost(0)
	if math.Abs(d2/d1-4) > 1e-9 {
		t.Errorf("amplifier term not quadratic: %v vs %v", d1, d2)
	}
	// LEACH numbers: 2000 bits at 50nJ/bit = 100 µJ electronics.
	if got := m.RxCost(); math.Abs(got-100e-6) > 1e-12 {
		t.Errorf("RxCost = %v, want 100e-6", got)
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(Default(), 1e-3)
	a.spent[1] = 4e-4
	if a.Depleted(1) {
		t.Error("node should not be depleted")
	}
	// Drain it.
	a.spent[1] += 1
	if !a.Depleted(1) {
		t.Error("node should be depleted")
	}
	// Untouched node.
	if a.Depleted(2) {
		t.Error("fresh node state wrong")
	}
}

func TestNewAccountantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity should panic")
		}
	}()
	NewAccountant(Default(), 0)
}

func TestDeploymentCost(t *testing.T) {
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	m := coverage.New(field, pts, 4, 2)
	r := rng.New(3)
	for id := 0; id < 40; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	res := (core.VoronoiDECOR{Rc: 8}).Deploy(m, rng.New(4), core.Options{})
	perNode, total := DeploymentCost(m, res, Default(), 8)
	if total <= 0 {
		t.Fatal("no deployment energy accounted")
	}
	sum := 0.0
	for id, e := range perNode {
		if e < 0 {
			t.Fatalf("negative energy for node %d", id)
		}
		sum += e
	}
	if math.Abs(sum-total) > total*1e-12 {
		t.Errorf("per-node sum %v != total %v", sum, total)
	}
	// Sanity scale: each message costs ~100-110 µJ TX; receivers add
	// ~100 µJ each. Total for a few thousand messages stays under 10 J.
	if total > 10 {
		t.Errorf("total deployment energy implausibly high: %v J", total)
	}
	// A centralized run has no messages and hence no cost.
	m2 := coverage.New(field, pts, 4, 2)
	res2 := (core.Centralized{}).Deploy(m2, rng.New(4), core.Options{})
	if _, tot2 := DeploymentCost(m2, res2, Default(), 8); tot2 != 0 {
		t.Errorf("centralized deployment energy = %v, want 0", tot2)
	}
}

// TestDeploymentCostBitStable calls DeploymentCost repeatedly on one
// grid-small deployment: every call must return the same total, bit for
// bit, and that total must be the ascending-ID sum of the per-node
// costs. Summed in map order, the total varied by a few ulps from call
// to call.
func TestDeploymentCostBitStable(t *testing.T) {
	field := geom.Square(100)
	m := coverage.New(field, lowdisc.Halton{}.Points(2000, field), 4, 3)
	r := rng.New(1)
	for id := 0; id < 200; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	res := (core.GridDECOR{CellSize: 5}).Deploy(m, rng.New(7), core.Options{})
	if len(res.NodeMessages) < 50 {
		t.Fatalf("only %d senders; the sum order would not matter", len(res.NodeMessages))
	}
	perNode, total := DeploymentCost(m, res, Default(), 8)
	ids := make([]int, 0, len(perNode))
	for id := range perNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	want := 0.0
	for _, id := range ids {
		want += perNode[id]
	}
	if math.Float64bits(total) != math.Float64bits(want) {
		t.Fatalf("total %v is not the ascending-ID sum %v", total, want)
	}
	for call := 0; call < 200; call++ {
		if _, got := DeploymentCost(m, res, Default(), 8); math.Float64bits(got) != math.Float64bits(total) {
			t.Fatalf("call %d: total %v (bits %x), first call %v (bits %x)", call, got, math.Float64bits(got), total, math.Float64bits(total))
		}
	}
}

func TestLifetimeEpochsScalesWithCovers(t *testing.T) {
	model := Default()
	const capacity = 1e-3 // small battery so the test is fast
	const epochSec = 10
	one := LifetimeEpochs([][]int{{1, 2, 3}}, model, capacity, epochSec, 8, 2)
	if one == 0 {
		t.Fatal("single cover should survive at least one epoch")
	}
	three := LifetimeEpochs([][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, model, capacity, epochSec, 8, 2)
	// Three disjoint covers should last roughly 3x as long: each node is
	// awake only every third epoch.
	ratio := float64(three) / float64(one)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("lifetime ratio = %v (epochs %d vs %d), want ~3", ratio, three, one)
	}
}

func TestLifetimeEpochsDegenerate(t *testing.T) {
	if LifetimeEpochs(nil, Default(), 1, 1, 8, 1) != 0 {
		t.Error("no covers should mean zero lifetime")
	}
	if LifetimeEpochs([][]int{{1}}, Default(), 0, 1, 8, 1) != 0 {
		t.Error("zero capacity should mean zero lifetime")
	}
}

// Leader rotation balances energy: with rotation, the max per-node
// message count in a grid deployment stays near the mean; pin this by
// accounting a real run's NodeMessages.
func TestRotationSpreadsEnergy(t *testing.T) {
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	m := coverage.New(field, pts, 4, 3)
	r := rng.New(7)
	for id := 0; id < 60; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	res := (core.GridDECOR{CellSize: 5}).Deploy(m, rng.New(8), core.Options{})
	if len(res.NodeMessages) < 10 {
		t.Skip("too few talkative nodes to measure balance")
	}
	maxMsgs, sum := 0, 0
	for _, n := range res.NodeMessages {
		if n > maxMsgs {
			maxMsgs = n
		}
		sum += n
	}
	mean := float64(sum) / float64(len(res.NodeMessages))
	if float64(maxMsgs) > 25*mean {
		t.Errorf("rotation failed to spread load: max %d vs mean %.1f", maxMsgs, mean)
	}
}
