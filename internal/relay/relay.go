// Package relay repairs communication connectivity by placing relay
// nodes. The paper's §2 guarantees connectivity for free only when
// rc >= 2·rs; below that bound a fully k-covered field can still
// partition into radio islands, and data (the "sensors' reports" whose
// loss motivates the paper) cannot reach the base station. Connect
// stitches the components together greedily: repeatedly join the two
// closest components with a chain of relays along the connecting
// segment.
package relay

import (
	"math"

	"decor/internal/geom"
	"decor/internal/network"
)

// Result reports a connectivity repair.
type Result struct {
	// Relays are the added node positions in placement order.
	Relays []geom.Point
	// Links counts component merges performed.
	Links int
}

// Connect adds relay nodes (sensing radius rs, communication radius rc)
// to net until its alive graph is connected, returning the relays.
// Relay IDs start at nextID. An empty network is vacuously connected.
func Connect(net *network.Network, rs, rc float64, nextID int) Result {
	if rc <= 0 {
		panic("relay: rc must be positive")
	}
	var res Result
	for {
		comps := net.ConnectedComponents()
		if len(comps) <= 1 {
			return res
		}
		// Find the closest pair of nodes in different components.
		// (Quadratic over component representatives is fine at the
		// experiment scales; the alternative — a full EMST — would be
		// overkill.)
		bestD := math.Inf(1)
		var bestA, bestB geom.Point
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				for _, a := range comps[i] {
					pa := net.Node(a).Pos
					for _, b := range comps[j] {
						pb := net.Node(b).Pos
						if d := pa.Dist(pb); d < bestD {
							bestD, bestA, bestB = d, pa, pb
						}
					}
				}
			}
		}
		// Chain of relays along the segment, spaced to stay in range.
		n := int(math.Ceil(bestD/rc)) - 1
		if n < 1 {
			n = 1 // the components were separated by more than rc but
			// less than 2rc only via these endpoints; one midpoint relay
			// bridges them.
		}
		for s := 1; s <= n; s++ {
			t := float64(s) / float64(n+1)
			p := bestA.Lerp(bestB, t)
			net.Add(nextID, p, rs, rc)
			res.Relays = append(res.Relays, p)
			nextID++
		}
		res.Links++
	}
}
