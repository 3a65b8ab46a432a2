// Package network models the communication side of a sensor deployment:
// nodes with sensing radius rs and communication radius rc, the 1-hop
// neighbor graph, connected components, and vertex connectivity. It is
// used to validate the paper's §2 corollary that full k-coverage with
// rc >= 2·rs implies a k-connected network (the network stays connected
// after any k−1 node failures).
package network

import (
	"sort"

	"decor/internal/geom"
)

// Node is one sensor device.
type Node struct {
	ID    int
	Pos   geom.Point
	Rs    float64 // sensing radius
	Rc    float64 // communication radius
	Alive bool
}

// Network is a collection of sensor nodes. Links are symmetric: two alive
// nodes are 1-hop neighbors when their distance is at most the smaller of
// the two communication radii (in the paper's homogeneous setting both
// radii are equal, but heterogeneous deployments are supported per §2).
type Network struct {
	nodes map[int]*Node
}

// New creates an empty network.
func New() *Network {
	return &Network{nodes: make(map[int]*Node)}
}

// Add inserts a new alive node. It panics on duplicate ID.
func (n *Network) Add(id int, pos geom.Point, rs, rc float64) {
	if _, ok := n.nodes[id]; ok {
		panic("network: duplicate node id")
	}
	if rs <= 0 || rc <= 0 {
		panic("network: radii must be positive")
	}
	n.nodes[id] = &Node{ID: id, Pos: pos, Rs: rs, Rc: rc, Alive: true}
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id int) *Node { return n.nodes[id] }

// Fail marks a node dead (it remains in the topology for bookkeeping).
// It reports whether the node existed and was alive.
func (n *Network) Fail(id int) bool {
	nd, ok := n.nodes[id]
	if !ok || !nd.Alive {
		return false
	}
	nd.Alive = false
	return true
}

// AliveIDs returns the IDs of alive nodes, ascending.
func (n *Network) AliveIDs() []int {
	out := make([]int, 0, len(n.nodes))
	for id, nd := range n.nodes {
		if nd.Alive {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// linked reports whether two alive nodes can communicate directly.
func linked(a, b *Node) bool {
	rc := a.Rc
	if b.Rc < rc {
		rc = b.Rc
	}
	return a.Pos.Dist2(b.Pos) <= rc*rc
}

// NeighborsOf returns the alive 1-hop neighbors of id, ascending. A dead
// or unknown node has no neighbors.
func (n *Network) NeighborsOf(id int) []int {
	return n.NeighborsInto(id, nil)
}

// NeighborsInto is NeighborsOf reusing buf's capacity: protocol rounds
// pass last round's slice back in and stop allocating once it has grown
// to the node's degree.
func (n *Network) NeighborsInto(id int, buf []int) []int {
	nd, ok := n.nodes[id]
	if !ok || !nd.Alive {
		return nil
	}
	out := buf[:0]
	for oid, other := range n.nodes {
		if oid == id || !other.Alive {
			continue
		}
		if linked(nd, other) {
			out = append(out, oid)
		}
	}
	sort.Ints(out)
	return out
}

// adjacency builds the alive-node adjacency as compact indices.
// Returns the sorted alive IDs and neighbor lists in the same indexing.
func (n *Network) adjacency() ([]int, [][]int) {
	ids := n.AliveIDs()
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	adj := make([][]int, len(ids))
	for i, id := range ids {
		a := n.nodes[id]
		for j := i + 1; j < len(ids); j++ {
			b := n.nodes[ids[j]]
			if linked(a, b) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return ids, adj
}

// ConnectedComponents returns the alive nodes grouped into communication
// components; each component and the component list are sorted by lowest
// ID.
func (n *Network) ConnectedComponents() [][]int {
	ids, adj := n.adjacency()
	seen := make([]bool, len(ids))
	var comps [][]int
	for start := range ids {
		if seen[start] {
			continue
		}
		var comp []int
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, ids[v])
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// IsConnected reports whether all alive nodes form one component (an empty
// or single-node network is connected).
func (n *Network) IsConnected() bool {
	return len(n.ConnectedComponents()) <= 1
}

// VertexConnectivity returns the vertex connectivity of the alive-node
// graph: the minimum number of node removals that disconnect it. By
// convention a graph with fewer than 2 nodes has connectivity 0, and the
// complete graph on n nodes has connectivity n−1.
//
// Implementation: Even's algorithm — unit-capacity max-flow on the
// node-split digraph between a fixed source and each non-neighbor, plus
// flows between the source's neighbors' non-neighbors, bounded by the
// current best. Intended for the modest network sizes of the experiments.
func (n *Network) VertexConnectivity() int {
	ids, adj := n.adjacency()
	v := len(ids)
	if v < 2 {
		return 0
	}
	if !n.IsConnected() {
		return 0
	}
	// Track adjacency as sets for quick lookup.
	isAdj := make([]map[int]bool, v)
	for i, a := range adj {
		isAdj[i] = make(map[int]bool, len(a))
		for _, j := range a {
			isAdj[i][j] = true
		}
	}
	complete := true
	for i := 0; i < v && complete; i++ {
		if len(adj[i]) != v-1 {
			complete = false
		}
	}
	if complete {
		return v - 1
	}
	// Connectivity never exceeds the minimum degree; start from there.
	best := v - 1
	for i := range adj {
		if len(adj[i]) < best {
			best = len(adj[i])
		}
	}
	// Min vertex cut separates some non-adjacent pair; it suffices to try
	// s = 0..best against all non-neighbors (standard bound: the cut
	// excludes at least one of the first best+1 vertices).
	for s := 0; s <= best && s < v; s++ {
		for t := 0; t < v; t++ {
			if t == s || isAdj[s][t] {
				continue
			}
			if f := maxFlowSplit(adj, s, t, best); f < best {
				best = f
			}
		}
	}
	return best
}

// maxFlowSplit computes max flow from s to t in the node-split digraph of
// the undirected graph adj (every vertex except s and t has capacity 1;
// edges have unit capacity which suffices for vertex cuts). The search
// aborts early once the flow reaches cap, returning cap.
func maxFlowSplit(adj [][]int, s, t, cap int) int {
	v := len(adj)
	// Vertex x -> nodes 2x (in) and 2x+1 (out); arc in->out capacity 1
	// (infinite for s, t). Undirected edge (x, y) becomes xOut->yIn and
	// yOut->xIn with capacity 1.
	g := newFlowGraph(2 * v)
	const inf = 1 << 30
	for x := 0; x < v; x++ {
		c := 1
		if x == s || x == t {
			c = inf
		}
		g.addEdge(2*x, 2*x+1, c)
	}
	for x := 0; x < v; x++ {
		for _, y := range adj[x] {
			if x < y {
				g.addEdge(2*x+1, 2*y, 1)
				g.addEdge(2*y+1, 2*x, 1)
			}
		}
	}
	return g.maxflow(2*s+1, 2*t, cap)
}

// flowGraph is a small Dinic max-flow implementation over unit-ish
// capacities.
type flowGraph struct {
	n     int
	to    []int
	capa  []int
	next  []int
	head  []int
	level []int
	iter  []int
}

func newFlowGraph(n int) *flowGraph {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &flowGraph{n: n, head: h}
}

func (g *flowGraph) addEdge(u, v, c int) {
	g.to = append(g.to, v)
	g.capa = append(g.capa, c)
	g.next = append(g.next, g.head[u])
	g.head[u] = len(g.to) - 1
	// Reverse edge.
	g.to = append(g.to, u)
	g.capa = append(g.capa, 0)
	g.next = append(g.next, g.head[v])
	g.head[v] = len(g.to) - 1
}

func (g *flowGraph) bfs(s, t int) bool {
	g.level = make([]int, g.n)
	for i := range g.level {
		g.level[i] = -1
	}
	queue := []int{s}
	g.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := g.head[u]; e != -1; e = g.next[e] {
			if g.capa[e] > 0 && g.level[g.to[e]] < 0 {
				g.level[g.to[e]] = g.level[u] + 1
				queue = append(queue, g.to[e])
			}
		}
	}
	return g.level[t] >= 0
}

func (g *flowGraph) dfs(u, t, f int) int {
	if u == t {
		return f
	}
	for ; g.iter[u] != -1; g.iter[u] = g.next[g.iter[u]] {
		e := g.iter[u]
		v := g.to[e]
		if g.capa[e] > 0 && g.level[v] == g.level[u]+1 {
			d := g.dfs(v, t, minInt(f, g.capa[e]))
			if d > 0 {
				g.capa[e] -= d
				g.capa[e^1] += d
				return d
			}
		}
	}
	return 0
}

// maxflow returns the s→t max flow, stopping early at limit.
func (g *flowGraph) maxflow(s, t, limit int) int {
	flow := 0
	for flow < limit && g.bfs(s, t) {
		g.iter = append([]int(nil), g.head...)
		for {
			f := g.dfs(s, t, 1<<30)
			if f == 0 {
				break
			}
			flow += f
			if flow >= limit {
				return limit
			}
		}
	}
	return flow
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
