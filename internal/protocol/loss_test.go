package protocol

import (
	"testing"

	"decor/internal/geom"
	"decor/internal/network"
	"decor/internal/sim"
	"decor/internal/sim/simtest"
)

// Failure-detection robustness under radio loss (the paper's §2.1
// acknowledges packet loss; monitoring each point with k sensors is its
// mitigation — here we check the detector itself).

// buildLossyCluster wires n mutually-reachable nodes on a lossy engine
// (shared setup from simtest, same as the sim-level loss suite).
func buildLossyCluster(n int, cfg Config, loss float64) (*sim.Engine, []*Node) {
	net := network.New()
	eng := simtest.NewLossyEngine(0.01, loss, 99)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		net.Add(i, geom.Pt(50+float64(i), 50), 4, 20)
		nodes[i] = NewNode(i, net, cfg)
	}
	for i, nd := range nodes {
		eng.Register(i, nd)
	}
	return eng, nodes
}

// With a short timeout (2 missed beats) and 30% loss, false suspicions
// are likely; with a generous multiplier they vanish. This pins the
// classic accuracy/latency trade-off of timeout-based detectors.
func TestFalseSuspicionsVsTimeoutMult(t *testing.T) {
	const loss = 0.3
	falseAt := func(mult int) int {
		eng, nodes := buildLossyCluster(4, Config{Tc: 1, TimeoutMult: mult, Cell: -1}, loss)
		eng.Run(300)
		total := 0
		for _, nd := range nodes {
			total += len(nd.Suspects())
		}
		return total
	}
	aggressive := falseAt(2)
	patient := falseAt(8)
	if patient > 0 {
		t.Errorf("generous timeout still produced %d false suspicions", patient)
	}
	if aggressive == 0 {
		t.Log("note: aggressive timeout produced no false suspicions this seed")
	}
	if aggressive < patient {
		t.Errorf("aggressive (%d) should not be cleaner than patient (%d)", aggressive, patient)
	}
}

// Real failures are still detected under loss — loss delays detection
// but cannot mask a dead node forever.
func TestTrueFailureDetectedUnderLoss(t *testing.T) {
	cfg := Config{Tc: 1, TimeoutMult: 6, Cell: -1}
	eng, nodes := buildLossyCluster(3, cfg, 0.3)
	eng.Run(20)
	eng.Kill(1)
	eng.Run(100)
	for _, observer := range []int{0, 2} {
		sus := nodes[observer].Suspects()
		found := false
		for _, s := range sus {
			if s == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d failed to detect the dead node under loss (suspects %v)",
				observer, sus)
		}
	}
	if st := eng.Stats(); st.Lost == 0 {
		t.Error("loss rate had no effect — test not exercising the lossy path")
	}
}

// Suspicions caused by loss self-heal when a heartbeat finally gets
// through.
func TestSuspicionRecoversOnHeartbeat(t *testing.T) {
	cfg := Config{Tc: 1, TimeoutMult: 2, Cell: -1}
	eng, nodes := buildLossyCluster(2, cfg, 0.45)
	eng.Run(400)
	// With 45% loss and timeout 2, both false suspicion and recovery
	// events should have occurred; at the end, whatever the current
	// state, the DetectedAt map must be consistent with suspects.
	for i, nd := range nodes {
		sus := nd.Suspects()
		for _, s := range sus {
			if _, ok := nd.DetectedAt[s]; !ok {
				t.Errorf("node %d suspects %d without a detection time", i, s)
			}
		}
		for peer := range nd.DetectedAt {
			found := false
			for _, s := range sus {
				if s == peer {
					found = true
				}
			}
			if !found {
				t.Errorf("node %d has stale DetectedAt for %d", i, peer)
			}
		}
	}
}
