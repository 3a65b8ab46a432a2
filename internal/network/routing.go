package network

// Routing support: the paper chooses the "big" communication radius
// rc = 10·√2 precisely so that adjacent grid-cell leaders are always
// 1-hop neighbors and "the grid-based approach [can] function without
// the need of any routing mechanism". With smaller radii, inter-leader
// messages must be relayed; AverageHopDistance quantifies by how much.

// AverageHopDistance returns the mean hop distance over the given node
// pairs, ignoring unreachable pairs; reachable reports how many pairs
// had a path. The adjacency is built once and one BFS runs per distinct
// source, so large pair batches stay cheap.
func (n *Network) AverageHopDistance(pairs [][2]int) (mean float64, reachable int) {
	ids, adj := n.adjacency()
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	distFrom := map[int][]int{} // source compact index -> BFS distances
	bfs := func(src int) []int {
		if d, ok := distFrom[src]; ok {
			return d
		}
		dist := make([]int, len(ids))
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		distFrom[src] = dist
		return dist
	}
	total := 0
	for _, pr := range pairs {
		src, okA := idx[pr[0]]
		dst, okB := idx[pr[1]]
		if !okA || !okB {
			continue
		}
		if d := bfs(src)[dst]; d >= 0 {
			total += d
			reachable++
		}
	}
	if reachable == 0 {
		return 0, 0
	}
	return float64(total) / float64(reachable), reachable
}
