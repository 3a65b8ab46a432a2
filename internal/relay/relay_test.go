package relay

import (
	"math"
	"sort"
	"testing"

	"decor/internal/geom"
	"decor/internal/network"
	"decor/internal/rng"
)

func TestConnectTwoIslands(t *testing.T) {
	net := network.New()
	// Two clusters 30 apart, rc = 8.
	net.Add(1, geom.Pt(10, 50), 4, 8)
	net.Add(2, geom.Pt(12, 50), 4, 8)
	net.Add(3, geom.Pt(40, 50), 4, 8)
	net.Add(4, geom.Pt(42, 50), 4, 8)
	if net.IsConnected() {
		t.Fatal("setup should be disconnected")
	}
	res := Connect(net, 4, 8, 100)
	if !net.IsConnected() {
		t.Fatal("Connect left the network partitioned")
	}
	if res.Links != 1 {
		t.Errorf("links = %d, want 1", res.Links)
	}
	// Gap 28 with rc 8 needs ceil(28/8)-1 = 3 relays.
	if len(res.Relays) != 3 {
		t.Errorf("relays = %d, want 3", len(res.Relays))
	}
	// Relays sit on the connecting segment.
	for _, p := range res.Relays {
		if p.Y != 50 || p.X < 12 || p.X > 40 {
			t.Errorf("relay %v off the bridging segment", p)
		}
	}
}

func TestConnectAlreadyConnected(t *testing.T) {
	net := network.New()
	net.Add(1, geom.Pt(1, 1), 1, 5)
	net.Add(2, geom.Pt(3, 1), 1, 5)
	res := Connect(net, 1, 5, 10)
	if len(res.Relays) != 0 || res.Links != 0 {
		t.Errorf("connected network got relays: %+v", res)
	}
	// Empty network too.
	empty := network.New()
	if res := Connect(empty, 1, 5, 0); len(res.Relays) != 0 {
		t.Error("empty network got relays")
	}
}

func TestConnectManyComponents(t *testing.T) {
	r := rng.New(5)
	net := network.New()
	// Five well-separated clusters of three nodes each.
	id := 0
	centers := []geom.Point{{X: 20, Y: 20}, {X: 170, Y: 30}, {X: 40, Y: 160}, {X: 180, Y: 180}, {X: 100, Y: 90}}
	for _, c := range centers {
		for s := 0; s < 3; s++ {
			p := geom.Point{X: c.X + r.Range(-3, 3), Y: c.Y + r.Range(-3, 3)}
			net.Add(id, p, 4, 10)
			id++
		}
	}
	if got := len(net.ConnectedComponents()); got != 5 {
		t.Fatalf("components = %d, want 5", got)
	}
	lower := minRelaysLowerBound(net, 10)
	res := Connect(net, 4, 10, 1000)
	if !net.IsConnected() {
		t.Fatal("not connected")
	}
	if res.Links != 4 {
		t.Errorf("links = %d, want 4", res.Links)
	}
	if len(res.Relays) < lower {
		t.Errorf("relays %d below the lower bound %d?!", len(res.Relays), lower)
	}
	// Greedy should stay within 2x of the bound on this geometry.
	if len(res.Relays) > 2*lower+4 {
		t.Errorf("relays %d far above lower bound %d", len(res.Relays), lower)
	}
}

func TestConnectBridgesSubRcGap(t *testing.T) {
	// Components separated by just over rc: a single midpoint relay
	// suffices (its distance to both endpoints is ~rc/2... actually
	// just over rc/2, still within range).
	net := network.New()
	net.Add(1, geom.Pt(10, 10), 4, 8)
	net.Add(2, geom.Pt(19, 10), 4, 8) // gap 9 > rc
	if net.IsConnected() {
		t.Fatal("setup should be disconnected")
	}
	res := Connect(net, 4, 8, 10)
	if !net.IsConnected() {
		t.Fatal("not connected")
	}
	if len(res.Relays) != 1 {
		t.Errorf("relays = %d, want 1", len(res.Relays))
	}
}

func TestConnectPanicsOnBadRc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rc <= 0 should panic")
		}
	}()
	Connect(network.New(), 1, 0, 0)
}

// minRelaysLowerBound returns a lower bound on the relays any solution
// needs: for each component (beyond the first), at least
// ceil(gap/rc) − 1 relays where gap is its distance to the nearest other
// component. It is the oracle that checks Connect is not wasteful.
func minRelaysLowerBound(net *network.Network, rc float64) int {
	comps := net.ConnectedComponents()
	if len(comps) <= 1 {
		return 0
	}
	// Gap from each component to its nearest neighbor component.
	gaps := make([]float64, len(comps))
	for i := range comps {
		gaps[i] = math.Inf(1)
		for j := range comps {
			if i == j {
				continue
			}
			for _, a := range comps[i] {
				pa := net.Node(a).Pos
				for _, b := range comps[j] {
					if d := pa.Dist(net.Node(b).Pos); d < gaps[i] {
						gaps[i] = d
					}
				}
			}
		}
	}
	// A spanning structure needs len(comps)-1 links; each link crossing
	// gap g needs ceil(g/rc)-1 relays. Sum the smallest len-1 gaps.
	sort.Float64s(gaps)
	total := 0
	for _, g := range gaps[:len(gaps)-1] {
		if n := int(math.Ceil(g/rc)) - 1; n > 0 {
			total += n
		}
	}
	return total
}
