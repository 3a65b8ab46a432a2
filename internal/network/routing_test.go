package network

import (
	"testing"

	"decor/internal/geom"
)

// hops is the hop distance from a to b as AverageHopDistance measures it
// for the single pair, or -1 when b is unreachable from a.
func hops(net *Network, a, b int) int {
	mean, reachable := net.AverageHopDistance([][2]int{{a, b}})
	if reachable == 0 {
		return -1
	}
	return int(mean)
}

func TestHopDistanceChain(t *testing.T) {
	net := lineNetwork(5, 3, 3.5) // 0-1-2-3-4
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {2, 4, 2}, {4, 0, 4},
	}
	for _, c := range cases {
		if got := hops(net, c.a, c.b); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopDistanceUnreachable(t *testing.T) {
	net := lineNetwork(4, 3, 3.5)
	net.Fail(1) // isolate node 0
	if got := hops(net, 0, 3); got != -1 {
		t.Errorf("unreachable = %d, want -1", got)
	}
	if got := hops(net, 0, 99); got != -1 {
		t.Errorf("unknown target = %d, want -1", got)
	}
	if got := hops(net, 1, 1); got != -1 {
		t.Errorf("dead self = %d, want -1", got)
	}
}

func TestAverageHopDistance(t *testing.T) {
	net := lineNetwork(5, 3, 3.5)
	mean, reach := net.AverageHopDistance([][2]int{{0, 1}, {0, 4}, {1, 3}})
	if reach != 3 {
		t.Fatalf("reachable = %d", reach)
	}
	if want := (1.0 + 4 + 2) / 3; mean != want {
		t.Errorf("mean = %v, want %v", mean, want)
	}
	net.Fail(2)
	_, reach = net.AverageHopDistance([][2]int{{0, 4}})
	if reach != 0 {
		t.Errorf("broken chain should have no reachable pairs, got %d", reach)
	}
}

// The paper's claim behind rc = 10*sqrt(2): adjacent 5x5-cell leaders at
// that radius are always direct neighbors, while rc = 8 can require
// relaying.
func TestLeaderHopClaim(t *testing.T) {
	// Two leaders at opposite corners of adjacent diagonal cells:
	// distance 10*sqrt(2) ≈ 14.14.
	a := geom.Pt(0.0, 0.0)
	b := geom.Pt(10, 10)

	big := New()
	big.Add(1, a, 4, 14.142135623730951)
	big.Add(2, b, 4, 14.142135623730951)
	if got := hops(big, 1, 2); got != 1 {
		t.Errorf("big rc: hops = %d, want 1 (no routing needed)", got)
	}

	small := New()
	small.Add(1, a, 4, 8)
	small.Add(2, b, 4, 8)
	small.Add(3, geom.Pt(5, 5), 4, 8) // relay
	if got := hops(small, 1, 2); got != 2 {
		t.Errorf("small rc: hops = %d, want 2 (relayed)", got)
	}
}
