// Wildfire: the paper's first motivating application (§1). A forest is
// monitored by temperature sensors with 3-coverage. A fire front destroys
// every node in a disc. Surviving neighbors detect the failures through
// missed heartbeats (the §3.2 protocol, simulated on a discrete-event
// engine), and DECOR restores coverage of the burned region.
//
// Run with: go run ./examples/wildfire
package main

import (
	"fmt"
	"log"

	"decor"
	"decor/internal/geom"
	"decor/internal/network"
	"decor/internal/protocol"
	"decor/internal/sim"
)

func main() {
	const (
		k          = 3
		rs         = 4.0
		rc         = 8.0
		fireRadius = 20.0
	)
	d, err := decor.NewDeployment(decor.Params{
		FieldSide: 80, K: k, Rs: rs, Rc: rc, NumPoints: 1200, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	d.ScatterRandom(120)
	rep, err := d.Deploy("grid-small")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forest instrumented: %d sensors give %.0f%% 3-coverage (%d placed by DECOR)\n",
		d.NumSensors(), 100*d.Coverage(k), rep.Placed)

	// Mirror the deployment into the protocol simulator: every sensor
	// heartbeats with period Tc = 30s and suspects a neighbor after 3
	// silent periods.
	net := network.New()
	eng := sim.NewEngine(0.05)
	cfg := protocol.Config{Tc: 30, TimeoutMult: 3, Cell: -1}
	nodes := map[int]*protocol.Node{}
	for _, s := range d.Sensors() {
		net.Add(s.ID, geom.Point(s.Pos), rs, rc)
		nodes[s.ID] = protocol.NewNode(s.ID, net, cfg)
	}
	for id, nd := range nodes {
		eng.Register(id, nd)
	}
	eng.Run(200) // let the network learn its neighborhoods

	// The fire front sweeps the north-east quadrant.
	fire := decor.Point{X: 55, Y: 55}
	burned := d.FailArea(fire, fireRadius)
	for _, id := range burned {
		net.Fail(id)
		eng.Kill(id)
	}
	fireTime := eng.Now()
	fmt.Printf("\nt=%.0fs: fire destroys %d sensors in a disc of radius %.0f\n",
		fireTime, len(burned), fireRadius)
	fmt.Printf("coverage drops to %.1f%% (3-covered), %.1f%% (1-covered)\n",
		100*d.Coverage(k), 100*d.Coverage(1))

	// Run the protocol until the survivors detect the losses.
	eng.Run(fireTime + 10*cfg.Tc)
	detections := 0
	var firstDetect, lastDetect sim.Time
	for id, nd := range nodes {
		if !eng.Alive(id) {
			continue
		}
		for _, dead := range nd.Suspects() {
			_ = dead
			detections++
			at := nd.DetectedAt[dead]
			if firstDetect == 0 || at < firstDetect {
				firstDetect = at
			}
			if at > lastDetect {
				lastDetect = at
			}
		}
	}
	fmt.Printf("heartbeat protocol: %d (neighbor, failure) detections between t=%.0fs and t=%.0fs\n",
		detections, firstDetect, lastDetect)
	fmt.Printf("detection latency: %.0fs–%.0fs after the fire (Tc=%.0fs, timeout %dx)\n",
		float64(firstDetect-fireTime), float64(lastDetect-fireTime), float64(cfg.Tc), cfg.TimeoutMult)

	// Restoration: the detected hole is re-covered in place.
	rrep, err := d.Deploy("voronoi-small")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrestoration: %d new sensors in %d rounds -> %.0f%% 3-coverage restored\n",
		rrep.Placed, rrep.Rounds, 100*d.Coverage(k))
}
