// Package protocol implements the node-level behaviours the paper assumes
// from the systems literature, on top of the internal/sim event engine:
//
//   - periodic meta-information (position) exchange with period Tc
//     (paper §3.2: "neighboring nodes periodically exchange
//     meta-information about their positions, with a period Tc"),
//   - failure detection by missed heartbeats ("once a node stops
//     receiving such messages from one of its neighbors, this indicates
//     that the neighbor has failed") — with no clock synchronization
//     required, also per §3.2,
//   - rotating leader election within a grid cell (§3.1: "a random
//     selection of leaders and a rotation mechanism ... so that the
//     energy dissipation ... gets spread across all nodes in the cell"),
//   - placement notification broadcast to the 1-hop neighborhood, the
//     message the round-based core model accounts for.
package protocol

import (
	"sort"

	"decor/internal/geom"
	"decor/internal/network"
	"decor/internal/obs"
	"decor/internal/sim"
)

// Package-level instruments on the process-wide registry. They are
// atomic, so concurrent engines in parallel tests may share them safely.
var (
	obsHeartbeats       = obs.Default().Counter(obs.ProtoHeartbeats)
	obsPlacementsOut    = obs.Default().Counter(obs.ProtoPlacementsAnnounced)
	obsPlacementsIn     = obs.Default().Counter(obs.ProtoPlacementsReceived)
	obsFailuresDetected = obs.Default().Counter(obs.ProtoFailuresDetected)
	obsLeaderChanges    = obs.Default().Counter(obs.ProtoLeaderChanges)

	obsHeartbeatSeconds = obs.Default().Histogram(obs.ProtoHeartbeatRoundSeconds)
	obsElectionSeconds  = obs.Default().Histogram(obs.ProtoLeaderElectionSeconds)
)

// Message kinds exchanged by Node actors.
const (
	MsgHeartbeat = "heartbeat"
	MsgPlacement = "placement"

	timerHeartbeat = "hb"
	timerCheck     = "check"
)

// HeartbeatPayload carries the periodic meta-information.
type HeartbeatPayload struct {
	Pos  geom.Point
	Cell int // grid cell the sender believes it belongs to (-1 if unused)
}

// PlacementPayload announces a newly deployed sensor.
type PlacementPayload struct {
	NewID int
	Pos   geom.Point
}

// Config tunes the protocol timers.
type Config struct {
	// Tc is the heartbeat period (paper §3.2).
	Tc sim.Time
	// TimeoutMult declares a neighbor failed after TimeoutMult
	// consecutive missed heartbeats.
	TimeoutMult int
	// Cell is this node's grid cell for leader election, or -1.
	Cell int
	// EpochLen is the leader-rotation period; 0 disables rotation (the
	// lowest alive ID stays leader).
	EpochLen sim.Time
}

func (c Config) timeout() sim.Time { return c.Tc * sim.Time(c.TimeoutMult) }

// peerState is one entry of a node's flattened neighbor ledger: the
// last-heard heartbeat time, the peer's announced position and cell, and
// the suspicion flag — the former four per-peer maps in one slice row.
type peerState struct {
	id        int
	lastHeard sim.Time
	pos       geom.Point
	cell      int
	suspected bool
}

// Node is the actor implementing the DECOR support protocols. Create with
// NewNode and register on a sim.Engine.
type Node struct {
	id  int
	net *network.Network
	cfg Config

	// peers is the heartbeat/failure-detection ledger, ascending by peer
	// ID: heartbeat rounds and timeout sweeps iterate it in place.
	peers []peerState
	// DetectedAt records when each failed neighbor was declared dead —
	// the observable failure-detection latency.
	DetectedAt map[int]sim.Time

	// lastLeader is the previous Leader() verdict, to count rotations
	// (-1 until the first query).
	lastLeader int

	// pool recycles heartbeat payload boxes (see pool.go); nbScratch is
	// the neighbor buffer reused across broadcast rounds.
	pool      hbPool
	nbScratch []int
}

// NewNode creates a protocol actor for the sensor with the given ID in
// net. The node's neighbors are resolved from the network topology at
// send time, so failures and additions take effect immediately.
func NewNode(id int, net *network.Network, cfg Config) *Node {
	if cfg.Tc <= 0 {
		panic("protocol: Tc must be positive")
	}
	if cfg.TimeoutMult < 2 {
		panic("protocol: TimeoutMult must be at least 2")
	}
	return &Node{
		id:         id,
		net:        net,
		cfg:        cfg,
		DetectedAt: map[int]sim.Time{},
		lastLeader: -1,
	}
}

// peer returns the ledger row for id, inserting a zero row in ID order
// if the peer is new.
func (n *Node) peer(id int) *peerState {
	i := sort.Search(len(n.peers), func(i int) bool { return n.peers[i].id >= id })
	if i < len(n.peers) && n.peers[i].id == id {
		return &n.peers[i]
	}
	n.peers = append(n.peers, peerState{})
	copy(n.peers[i+1:], n.peers[i:])
	n.peers[i] = peerState{id: id, cell: -1}
	return &n.peers[i]
}

// OnStart implements sim.Actor.
func (n *Node) OnStart(ctx *sim.Context) {
	// Deterministic de-phasing: stagger heartbeats by ID so simultaneous
	// wakeups don't depend on queue ordering. No synchronization between
	// nodes is assumed or needed.
	phase := sim.Time(float64(n.id%17) / 17.0 * float64(n.cfg.Tc))
	ctx.SetTimer(phase, timerHeartbeat)
	ctx.SetTimer(n.cfg.timeout(), timerCheck)
}

// OnTimer implements sim.Actor.
func (n *Node) OnTimer(ctx *sim.Context, tag string) {
	switch tag {
	case timerHeartbeat:
		sp := obs.Start(nil, "", obsHeartbeatSeconds)
		n.nbScratch = n.net.NeighborsInto(n.id, n.nbScratch)
		if len(n.nbScratch) > 0 {
			// One pooled box per round, shared by every neighbor: refs
			// counts the scheduled deliveries (Send retains extras for
			// fault-injected duplicates) and the engine releases each as
			// it resolves, returning the box to the pool.
			hb := n.pool.get()
			hb.HeartbeatPayload = HeartbeatPayload{Pos: n.pos(), Cell: n.cfg.Cell}
			hb.refs = len(n.nbScratch)
			for _, peer := range n.nbScratch {
				ctx.Send(peer, MsgHeartbeat, hb)
			}
		}
		sp.End()
		obsHeartbeats.Inc()
		ctx.SetTimer(n.cfg.Tc, timerHeartbeat)
	case timerCheck:
		now := ctx.Now()
		for i := range n.peers {
			p := &n.peers[i]
			if p.suspected {
				continue
			}
			if now-p.lastHeard > n.cfg.timeout() {
				p.suspected = true
				n.DetectedAt[p.id] = now
				obsFailuresDetected.Inc()
			}
		}
		ctx.SetTimer(n.cfg.Tc, timerCheck)
	}
}

// OnMessage implements sim.Actor.
func (n *Node) OnMessage(ctx *sim.Context, msg sim.Message) {
	switch msg.Kind {
	case MsgHeartbeat:
		var hb HeartbeatPayload
		switch v := msg.Payload.(type) {
		case *hbMsg:
			hb = v.HeartbeatPayload // copy the fields, never the box
		case HeartbeatPayload:
			hb = v
		default:
			return
		}
		p := n.peer(msg.From)
		p.lastHeard = ctx.Now()
		p.pos = hb.Pos
		p.cell = hb.Cell
		if p.suspected {
			// The peer recovered (or detection was premature): clear it.
			p.suspected = false
			delete(n.DetectedAt, msg.From)
		}
	}
}

// ID returns the node's sensor ID.
func (n *Node) ID() int { return n.id }

// Cell returns the grid cell this node elects leaders in (-1 if unused).
func (n *Node) Cell() int { return n.cfg.Cell }

// Suspects returns the neighbors this node currently believes failed,
// ascending.
func (n *Node) Suspects() []int {
	out := make([]int, 0, len(n.peers))
	for i := range n.peers {
		if n.peers[i].suspected {
			out = append(out, n.peers[i].id)
		}
	}
	return out // peers is sorted, so the filtered view already is
}

// KnownAliveInCell returns this node's local view of the alive members of
// its cell (itself plus unsuspected heard peers claiming the same cell),
// ascending. This is the electorate for leader election.
func (n *Node) KnownAliveInCell() []int {
	out := []int{n.id}
	for i := range n.peers {
		p := &n.peers[i]
		if p.cell == n.cfg.Cell && !p.suspected {
			out = append(out, p.id)
		}
	}
	sort.Ints(out) // peers is sorted, but n.id must land in order too
	return out
}

// Leader returns this node's current view of its cell's leader: the
// rotation walks the sorted alive membership by epoch, spreading the
// leader's energy cost across the cell (paper §3.1). With EpochLen 0 the
// leader is simply the lowest alive ID.
func (n *Node) Leader(now sim.Time) int {
	sp := obs.Start(nil, "", obsElectionSeconds)
	leader := n.electLeader(now)
	sp.End()
	if n.lastLeader >= 0 && leader != n.lastLeader {
		obsLeaderChanges.Inc()
	}
	n.lastLeader = leader
	return leader
}

func (n *Node) electLeader(now sim.Time) int {
	members := n.KnownAliveInCell()
	if len(members) == 0 {
		return n.id
	}
	if n.cfg.EpochLen <= 0 {
		return members[0]
	}
	epoch := int(now / n.cfg.EpochLen)
	return members[epoch%len(members)]
}

func (n *Node) pos() geom.Point {
	if nd := n.net.Node(n.id); nd != nil {
		return nd.Pos
	}
	return geom.Point{}
}
