package network

import (
	"testing"

	"decor/internal/geom"
	"decor/internal/rng"
)

func lineNetwork(n int, spacing, rc float64) *Network {
	net := New()
	for i := 0; i < n; i++ {
		net.Add(i, geom.Pt(float64(i)*spacing, 0), rc/2, rc)
	}
	return net
}

func TestAddFail(t *testing.T) {
	net := New()
	net.Add(1, geom.Pt(1, 1), 1, 2)
	if len(net.nodes) != 1 || net.Node(1) == nil {
		t.Fatal("Add failed")
	}
	if !net.Fail(1) || net.Fail(1) {
		t.Error("Fail semantics wrong")
	}
	if len(net.AliveIDs()) != 0 {
		t.Error("failed node reported alive")
	}
}

func TestAddPanics(t *testing.T) {
	net := New()
	net.Add(1, geom.Pt(1, 1), 1, 2)
	for _, bad := range []func(){
		func() { net.Add(1, geom.Pt(2, 2), 1, 2) },
		func() { net.Add(2, geom.Pt(2, 2), 0, 2) },
		func() { net.Add(3, geom.Pt(2, 2), 1, 0) },
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

func TestNeighbors(t *testing.T) {
	net := lineNetwork(4, 3, 3.5) // chain: 0-1-2-3
	if got := net.NeighborsOf(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("NeighborsOf(1) = %v", got)
	}
	net.Fail(2)
	if got := net.NeighborsOf(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("after failure NeighborsOf(1) = %v", got)
	}
	if net.NeighborsOf(2) != nil {
		t.Error("dead node should have no neighbors")
	}
	if net.NeighborsOf(42) != nil {
		t.Error("unknown node should have no neighbors")
	}
}

func TestHeterogeneousLink(t *testing.T) {
	net := New()
	net.Add(1, geom.Pt(0, 0), 1, 10)
	net.Add(2, geom.Pt(5, 0), 1, 3) // b's radius too small to reach
	if got := net.NeighborsOf(1); len(got) != 0 {
		t.Errorf("asymmetric reach should not link: %v", got)
	}
	net.Add(3, geom.Pt(2, 0), 1, 3)
	if got := net.NeighborsOf(1); len(got) != 1 || got[0] != 3 {
		t.Errorf("NeighborsOf(1) = %v", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	net := lineNetwork(4, 3, 3.5)
	if !net.IsConnected() {
		t.Error("chain should be connected")
	}
	comps := net.ConnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Errorf("components = %v", comps)
	}
	net.Fail(1) // break the chain: {0}, {2,3}
	comps = net.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components after failure = %v", comps)
	}
	if comps[0][0] != 0 || len(comps[1]) != 2 {
		t.Errorf("components = %v", comps)
	}
	if net.IsConnected() {
		t.Error("broken chain reported connected")
	}
}

func TestEmptyNetwork(t *testing.T) {
	net := New()
	if !net.IsConnected() {
		t.Error("empty network should be vacuously connected")
	}
	if net.VertexConnectivity() != 0 {
		t.Error("empty connectivity should be 0")
	}
}

func TestVertexConnectivityChain(t *testing.T) {
	net := lineNetwork(5, 3, 3.5)
	if got := net.VertexConnectivity(); got != 1 {
		t.Errorf("chain connectivity = %d, want 1", got)
	}
}

func TestVertexConnectivityComplete(t *testing.T) {
	net := New()
	// 4 nodes all within range: complete graph, connectivity 3.
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 2}}
	for i, p := range pts {
		net.Add(i, p, 1, 5)
	}
	if got := net.VertexConnectivity(); got != 3 {
		t.Errorf("K4 connectivity = %d, want 3", got)
	}
}

func TestVertexConnectivityCycle(t *testing.T) {
	// 6 nodes in a ring, each reaching only its two ring neighbors:
	// connectivity 2.
	net := New()
	ring := []geom.Point{
		{X: 50, Y: 60}, {X: 58.66, Y: 55}, {X: 58.66, Y: 45},
		{X: 50, Y: 40}, {X: 41.34, Y: 45}, {X: 41.34, Y: 55},
	}
	for i, p := range ring {
		net.Add(i, p, 1, 10.5) // ring edge length 10; diagonal >= 17
	}
	if got := net.VertexConnectivity(); got != 2 {
		t.Errorf("cycle connectivity = %d, want 2", got)
	}
}

func TestVertexConnectivityDisconnected(t *testing.T) {
	net := New()
	net.Add(1, geom.Pt(0, 0), 1, 2)
	net.Add(2, geom.Pt(50, 50), 1, 2)
	if got := net.VertexConnectivity(); got != 0 {
		t.Errorf("disconnected graph connectivity = %d", got)
	}
}

func TestVertexConnectivityStar(t *testing.T) {
	// Hub with 4 spokes out of each other's reach: connectivity 1 (the
	// hub is a cut vertex).
	net := New()
	net.Add(0, geom.Pt(50, 50), 1, 12)
	spokes := []geom.Point{{X: 60, Y: 50}, {X: 40, Y: 50}, {X: 50, Y: 60}, {X: 50, Y: 40}}
	for i, p := range spokes {
		net.Add(i+1, p, 1, 12)
	}
	if got := net.VertexConnectivity(); got != 1 {
		t.Errorf("star connectivity = %d, want 1", got)
	}
}

// The paper's corollary: if an area is k-covered and rc >= 2*rs, the
// network is k-connected. Build random k-covered-ish dense deployments
// and verify connectivity >= k.
func TestKCoverageImpliesKConnectivity(t *testing.T) {
	r := rng.New(77)
	field := geom.Square(24)
	const rs, rc = 4.0, 8.0
	for _, k := range []int{1, 2, 3} {
		net := New()
		// Drop sensors on a dense jittered lattice until each lattice
		// point is k-covered; lattice pitch rs/2 guarantees area coverage.
		id := 0
		for pass := 0; pass < k; pass++ {
			for x := 0.0; x <= 24; x += rs {
				for y := 0.0; y <= 24; y += rs {
					jx := x + r.Range(-0.5, 0.5)
					jy := y + r.Range(-0.5, 0.5)
					net.Add(id, field.Clamp(geom.Pt(jx, jy)), rs, rc)
					id++
				}
			}
		}
		if got := net.VertexConnectivity(); got < k {
			t.Errorf("k=%d: connectivity %d violates corollary", k, got)
		}
	}
}
