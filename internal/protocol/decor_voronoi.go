package protocol

import (
	"sort"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/sim"
)

// Event-driven Voronoi DECOR: every sensor is an actor that owns the
// sample points nearest to it among the sensors it KNOWS (Definition 1
// evaluated over local knowledge), places new sensors at its most
// beneficial deficient owned point, and announces placements by radio to
// whoever is physically within rc. Two nodes that cannot hear each other
// (distance in (rc, 2rc]) can both believe they own the same point —
// exactly the coordination gap that costs the distributed algorithm
// extra sensors.

const sensorActorBase = 1 << 21

// VoronoiWorld is the shared physical ground truth for the event-driven
// Voronoi scheme.
type VoronoiWorld struct {
	M      *coverage.Map
	Rc     float64
	Eng    *sim.Engine
	Period sim.Time

	nextSensor int
	nodes      map[int]*VoronoiNode // by sensor ID
	// PlacementLog records every placed sensor in order.
	PlacementLog []PlacementPayload
	// MessagesSent counts placement announcements (one per physical
	// receiver).
	MessagesSent int
}

// NewVoronoiWorld prepares an event-driven Voronoi run.
func NewVoronoiWorld(m *coverage.Map, rc float64, eng *sim.Engine, period sim.Time) *VoronoiWorld {
	if period <= 0 {
		panic("protocol: period must be positive")
	}
	if rc < m.Rs() {
		panic("protocol: rc must be at least rs")
	}
	w := &VoronoiWorld{M: m, Rc: rc, Eng: eng, Period: period, nodes: map[int]*VoronoiNode{}}
	for _, id := range m.SensorIDs() {
		if id >= w.nextSensor {
			w.nextSensor = id + 1
		}
	}
	return w
}

// Start spawns an actor per existing sensor.
func (w *VoronoiWorld) Start() {
	for _, id := range w.M.SensorIDs() {
		w.spawnNode(id)
	}
}

func (w *VoronoiWorld) spawnNode(id int) *VoronoiNode {
	n := &VoronoiNode{world: w, id: id}
	w.nodes[id] = n
	w.Eng.Register(sensorActorBase+id, n)
	return n
}

// placeSensor actuates a new sensor and returns its ID.
func (w *VoronoiWorld) placeSensor(pos geom.Point) int {
	id := w.nextSensor
	w.nextSensor++
	w.M.AddSensor(id, pos)
	w.PlacementLog = append(w.PlacementLog, PlacementPayload{NewID: id, Pos: pos})
	return id
}

// Seed drops a base-station sensor at the lowest deficient sample point
// and spawns its actor, informing physical neighbors.
func (w *VoronoiWorld) Seed() bool {
	unc := w.M.UncoveredPoints()
	if len(unc) == 0 {
		return false
	}
	pos := w.M.Point(unc[0])
	id := w.placeSensor(pos)
	for _, nid := range w.M.SensorsInBall(pos, w.Rc) {
		if n := w.nodes[nid]; n != nil {
			n.learn(id, pos)
		}
	}
	w.spawnNode(id)
	return true
}

// knownSensor is one row of a node's knowledge ledger.
type knownSensor struct {
	id  int
	pos geom.Point
}

// VoronoiNode is one sensor actor.
type VoronoiNode struct {
	world *VoronoiWorld
	id    int
	pos   geom.Point
	// known holds every sensor this node has heard of (including
	// itself), ascending by ID: the basis for its local Voronoi cell.
	// Flat and sorted, so owner() iterates it directly instead of
	// materializing and sorting a key slice per query.
	known []knownSensor
	done  bool
	// Placed counts sensors this node deployed.
	Placed int
	// defScratch is the owned-deficient result buffer and ballScratch
	// the sensor-ball buffer, both reused across wake-ups.
	defScratch  []int
	ballScratch []int
}

// OnStart implements sim.Actor.
func (n *VoronoiNode) OnStart(ctx *sim.Context) {
	w := n.world
	n.pos, _ = w.M.SensorPos(n.id)
	n.known = n.known[:0]
	// Initial HELLO exchange: learn every sensor currently within rc.
	// SensorsInBall is ascending and includes this node itself (its own
	// position is in the map), so the ledger starts sorted; learn keeps
	// the self row in the unlikely case the ball misses it.
	n.ballScratch = w.M.AppendSensorsInBall(n.ballScratch[:0], n.pos, w.Rc)
	for _, nid := range n.ballScratch {
		p, _ := w.M.SensorPos(nid)
		n.known = append(n.known, knownSensor{id: nid, pos: p})
	}
	n.learn(n.id, n.pos)
	phase := sim.Time(float64(n.id%23)/23.0) * w.Period
	ctx.SetTimer(phase, timerPlace)
}

// learn folds a sensor into this node's knowledge, keeping the ledger
// sorted by ID.
func (n *VoronoiNode) learn(id int, pos geom.Point) {
	// New knowledge can only reduce work; done remains valid, except
	// that a node that believed itself finished stays finished (its
	// owned deficits can only have shrunk).
	i := sort.Search(len(n.known), func(i int) bool { return n.known[i].id >= id })
	if i < len(n.known) && n.known[i].id == id {
		n.known[i].pos = pos
		return
	}
	n.known = append(n.known, knownSensor{})
	copy(n.known[i+1:], n.known[i:])
	n.known[i] = knownSensor{id: id, pos: pos}
}

// OnMessage implements sim.Actor.
func (n *VoronoiNode) OnMessage(_ *sim.Context, msg sim.Message) {
	if msg.Kind != MsgPlacement {
		return
	}
	if pl, ok := msg.Payload.(PlacementPayload); ok {
		n.learn(pl.NewID, pl.Pos)
	}
}

// ownedDeficient returns this node's believed-deficient owned points,
// ascending, in a buffer reused across wake-ups: points within rc whose
// nearest KNOWN sensor is this node and whose believed coverage is below
// k.
func (n *VoronoiNode) ownedDeficient() []int {
	w := n.world
	out := n.defScratch[:0]
	w.M.VisitPointsInBall(n.pos, w.Rc, func(i int, p geom.Point) bool {
		if n.owner(p) != n.id {
			return true
		}
		if n.believedCount(p) < w.M.K() {
			out = append(out, i)
		}
		return true
	})
	sort.Ints(out)
	n.defScratch = out
	return out
}

// owner returns the known sensor nearest to p (ties to lowest ID),
// restricted to known sensors within rc of p. The ledger is already
// sorted ascending, so the scan resolves ties identically to the former
// sorted-key iteration without building one.
func (n *VoronoiNode) owner(p geom.Point) int {
	w := n.world
	best, bestD := -1, w.Rc*w.Rc
	for i := range n.known {
		if d := n.known[i].pos.Dist2(p); d < bestD || (d == bestD && best < 0) {
			best, bestD = n.known[i].id, d
		}
	}
	return best
}

// believedCount counts known sensors covering p.
func (n *VoronoiNode) believedCount(p geom.Point) int {
	rs := n.world.M.Rs()
	c := 0
	for i := range n.known {
		if n.known[i].pos.Dist2(p) <= rs*rs {
			c++
		}
	}
	return c
}

// OnTimer implements sim.Actor: one placement attempt per wake-up.
func (n *VoronoiNode) OnTimer(ctx *sim.Context, tag string) {
	if tag != timerPlace || n.done {
		return
	}
	w := n.world
	deficient := n.ownedDeficient()
	if len(deficient) == 0 {
		n.done = true
		return
	}
	// Greedy benefit over believed counts, restricted to the node's
	// knowledge horizon (points within rc).
	bestIdx, best := -1, 0
	for _, i := range deficient {
		b := w.M.BenefitWith(w.M.Point(i), func(j int) int {
			pj := w.M.Point(j)
			if n.pos.Dist2(pj) > w.Rc*w.Rc {
				return -1
			}
			return n.believedCount(pj)
		})
		if b > best {
			best, bestIdx = b, i
		}
	}
	if bestIdx < 0 {
		n.done = true
		return
	}
	pos := w.M.Point(bestIdx)
	id := w.placeSensor(pos)
	n.learn(id, pos)
	n.Placed++
	// Radio announcement: everyone physically within rc of the SENDER
	// hears it (the new sensor's actor spawns already knowing its
	// surroundings). The payload is boxed once for the whole broadcast.
	var announce any = PlacementPayload{NewID: id, Pos: pos}
	n.ballScratch = w.M.AppendSensorsInBall(n.ballScratch[:0], n.pos, w.Rc)
	for _, nid := range n.ballScratch {
		if nid == n.id || nid == id {
			continue
		}
		if w.nodes[nid] != nil {
			ctx.Send(sensorActorBase+nid, MsgPlacement, announce)
			w.MessagesSent++
		}
	}
	w.spawnNode(id)
	ctx.SetTimer(w.Period, timerPlace)
}

// RunVoronoiDeployment drives the event-driven Voronoi scheme to full
// coverage, seeding stalled orphan regions; returns the seed count.
func RunVoronoiDeployment(w *VoronoiWorld) int {
	w.Start()
	seeds := 0
	for !w.M.FullyCovered() {
		w.Eng.Run(sim.Inf)
		if w.M.FullyCovered() {
			break
		}
		if !w.Seed() {
			break
		}
		seeds++
	}
	return seeds
}
