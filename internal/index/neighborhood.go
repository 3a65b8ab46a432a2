package index

// Neighborhoods is a precomputed fixed-radius adjacency over a dense ID
// range [0, n): for every id i it stores the IDs within distance r of
// i's position, ascending, in one shared compressed (CSR) layout. DECOR's
// placement loop asks the same "points within rs of point i" question for
// the same radius thousands of times per deployment; answering from a
// precomputed slice removes both the bucket scan and the per-query
// distance arithmetic from the hot path, and allocates nothing after
// construction.
//
// The structure is immutable and safe for concurrent readers, like the
// grid it is built from.
type Neighborhoods struct {
	off []int32
	ids []int32
}

// BuildNeighborhoods precomputes the within-r adjacency of every
// indexed point. Every list contains its own ID, since a point is
// within any non-negative radius of itself.
func (g *Grid) BuildNeighborhoods(r float64) *Neighborhoods {
	n := len(g.pts)
	nb := &Neighborhoods{off: make([]int32, n+1)}
	if r < 0 {
		return nb // no point is within a negative radius, not even itself
	}
	// One geometric pass: record every source's ball once (in visit
	// order) while counting row sizes; the fill below is then a pure
	// array transpose with no second round of ball queries.
	counts := make([]int32, n)
	stream := make([]int32, 0, n*8)
	rowEnd := make([]int32, n)
	r2 := r * r
	for j, c := range g.pts {
		x0, x1, y0, y1 := g.Span(c, r)
		for cy := y0; cy <= y1; cy++ {
			for _, e := range g.row(cy, x0, x1) {
				if e.p.Dist2(c) <= r2 {
					stream = append(stream, e.id)
					counts[e.id]++
				}
			}
		}
		rowEnd[j] = int32(len(stream))
	}
	total := int32(0)
	for i, c := range counts {
		nb.off[i] = total
		total += c
	}
	nb.off[n] = total
	nb.ids = make([]int32, total)
	// Transpose: replaying source IDs in ascending order and appending
	// each to the rows of the points it reaches produces every row
	// already sorted (the within-r relation is symmetric), with no
	// per-row sort. counts doubles as the per-row write cursor.
	copy(counts, nb.off[:n])
	start := int32(0)
	for j := 0; j < n; j++ {
		j32 := int32(j)
		for _, i := range stream[start:rowEnd[j]] {
			nb.ids[counts[i]] = j32
			counts[i]++
		}
		start = rowEnd[j]
	}
	return nb
}

// Bytes returns the size of the adjacency's arrays.
func (nb *Neighborhoods) Bytes() int64 { return 4 * int64(len(nb.off)+len(nb.ids)) }

// Len returns the number of IDs covered.
func (nb *Neighborhoods) Len() int { return len(nb.off) - 1 }

// At returns the IDs within the radius of id i, ascending, including i
// itself. The returned slice aliases the shared layout: callers must not
// modify it.
func (nb *Neighborhoods) At(i int) []int32 {
	return nb.ids[nb.off[i]:nb.off[i+1]]
}
