package protocol

import (
	"sort"
	"testing"

	"decor/internal/geom"
	"decor/internal/network"
	"decor/internal/sim"
)

// buildCluster wires n sensors in mutual range into an engine.
func buildCluster(n int, cfg Config) (*sim.Engine, *network.Network, []*Node) {
	net := network.New()
	eng := sim.NewEngine(0.01)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		net.Add(i, geom.Pt(50+float64(i), 50), 4, 20)
		nodes[i] = NewNode(i, net, cfg)
	}
	for i, nd := range nodes {
		eng.Register(i, nd)
	}
	return eng, net, nodes
}

func TestConfigValidation(t *testing.T) {
	net := network.New()
	for _, cfg := range []Config{
		{Tc: 0, TimeoutMult: 3},
		{Tc: 1, TimeoutMult: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cfg %+v should panic", cfg)
				}
			}()
			NewNode(1, net, cfg)
		}()
	}
}

func TestHeartbeatsPropagatePositions(t *testing.T) {
	eng, _, nodes := buildCluster(3, Config{Tc: 1, TimeoutMult: 3, Cell: -1})
	eng.Run(5)
	for i, nd := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			p, ok := peerPos(nd, j)
			if !ok {
				t.Fatalf("node %d never heard node %d", i, j)
			}
			if !p.Eq(geom.Pt(50+float64(j), 50)) {
				t.Errorf("node %d has wrong position for %d: %v", i, j, p)
			}
		}
	}
}

func TestFailureDetectionLatency(t *testing.T) {
	cfg := Config{Tc: 1, TimeoutMult: 3, Cell: -1}
	eng, _, nodes := buildCluster(3, cfg)
	eng.Run(5) // everyone knows everyone
	eng.Kill(1)
	eng.Run(20)
	for _, observer := range []int{0, 2} {
		sus := nodes[observer].Suspects()
		if len(sus) != 1 || sus[0] != 1 {
			t.Fatalf("node %d suspects %v, want [1]", observer, sus)
		}
		det := nodes[observer].DetectedAt[1]
		// Detection must occur within timeout + one check period of the
		// kill at t=5.
		if det < 5 || det > 5+cfg.timeout()+cfg.Tc+1 {
			t.Errorf("node %d detected failure at %v", observer, det)
		}
	}
	// The dead node's stats stop growing: no messages from node 1 after
	// the kill are delivered.
	if eng.Alive(1) {
		t.Error("killed node reported alive")
	}
}

func TestNoFalseSuspicionsWhileHealthy(t *testing.T) {
	eng, _, nodes := buildCluster(4, Config{Tc: 1, TimeoutMult: 3, Cell: -1})
	eng.Run(50)
	for i, nd := range nodes {
		if len(nd.Suspects()) != 0 {
			t.Errorf("node %d has false suspicions %v", i, nd.Suspects())
		}
	}
}

func TestLeaderElectionConvergesAndRotates(t *testing.T) {
	cfg := Config{Tc: 1, TimeoutMult: 3, Cell: 7, EpochLen: 10}
	eng, _, nodes := buildCluster(3, cfg)
	eng.Run(5)
	// All nodes agree on the electorate and hence the leader.
	for _, nd := range nodes {
		members := nd.KnownAliveInCell()
		if len(members) != 3 {
			t.Fatalf("electorate = %v", members)
		}
	}
	l0 := nodes[0].Leader(5)
	for i, nd := range nodes {
		if nd.Leader(5) != l0 {
			t.Errorf("node %d disagrees on leader", i)
		}
	}
	// Rotation: across three consecutive epochs all three nodes lead.
	seen := map[int]bool{}
	for _, epoch := range []sim.Time{5, 15, 25} {
		seen[nodes[0].Leader(epoch)] = true
	}
	if len(seen) != 3 {
		t.Errorf("rotation covered %d distinct leaders, want 3", len(seen))
	}
	// EpochLen 0 means stable lowest-ID leader.
	stable := NewNode(9, network.New(), Config{Tc: 1, TimeoutMult: 3, Cell: 7})
	if stable.Leader(123) != 9 {
		t.Errorf("solo leader = %d", stable.Leader(123))
	}
}

func TestLeaderReelectionAfterFailure(t *testing.T) {
	cfg := Config{Tc: 1, TimeoutMult: 3, Cell: 1, EpochLen: 0}
	eng, _, nodes := buildCluster(3, cfg)
	eng.Run(5)
	if l := nodes[2].Leader(5); l != 0 {
		t.Fatalf("initial leader = %d, want 0", l)
	}
	eng.Kill(0)
	eng.Run(30)
	for _, observer := range []int{1, 2} {
		if l := nodes[observer].Leader(30); l != 1 {
			t.Errorf("node %d leader after failure = %d, want 1", observer, l)
		}
	}
}

func TestHeartbeatMessageVolumeScalesWithNeighbors(t *testing.T) {
	// 2 nodes -> each heartbeat is 1 message; 5 nodes -> 4 messages.
	engSmall, _, _ := buildCluster(2, Config{Tc: 1, TimeoutMult: 3, Cell: -1})
	engBig, _, _ := buildCluster(5, Config{Tc: 1, TimeoutMult: 3, Cell: -1})
	engSmall.Run(20)
	engBig.Run(20)
	small := engSmall.Stats().Sent
	big := engBig.Stats().Sent
	// Expected ratio ~ (5*4)/(2*1) = 10.
	if big < 6*small {
		t.Errorf("message volume small=%d big=%d; expected ~10x", small, big)
	}
}

// peerPos returns the last position n heard from peer in a heartbeat.
func peerPos(n *Node, peer int) (geom.Point, bool) {
	i := sort.Search(len(n.peers), func(i int) bool { return n.peers[i].id >= peer })
	if i < len(n.peers) && n.peers[i].id == peer {
		return n.peers[i].pos, true
	}
	return geom.Point{}, false
}
