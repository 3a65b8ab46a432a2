package partition

import (
	"slices"

	"decor/internal/geom"
)

// LocalVoronoi is the paper's local Voronoi partition (§3.1, Definition
// 1) restricted to a tracked subset of the sample points. Each tracked
// point is owned by its nearest sensor within the communication radius
// rc (closed ball), the lower id on equal distance; a point with no
// sensor within rc is an orphan. Sensors are nodes, numbered in the
// order they join, and each node's points are linked through one slot
// array, so ownership changes allocate nothing.
//
// The partition holds no spatial index: callers find the candidates
// (the sensors near a tracked point, the points near a new sensor) with
// their own ball queries and pass the squared distances in. The
// partition alone applies the ownership rule to them.
type LocalVoronoi struct {
	rc2    float64
	slotOf []int32 // per sample point: slot index + 1, 0 = untracked
	slots  []voronoiSlot
	nodes  []voronoiNode
	owners []int // per slot: the best Candidate's id (-1 = none), until Link
}

// voronoiNode is one sensor. head starts its list of owned points (a
// slot index, -1 when empty).
type voronoiNode struct {
	id   int
	pos  geom.Point
	head int32
}

// voronoiSlot is one tracked point's ownership record. prev and next
// link the owner's point list (slot indices, -1 at either end).
type voronoiSlot struct {
	pt         int32
	owner      int32 // node index, -1 = orphan
	prev, next int32
	d2         float64 // squared distance to the owner
}

// NewLocalVoronoi returns a partition of numPoints sample points with
// communication radius rc that tracks none of them yet; tracked is the
// expected number of tracked points. rc must be positive.
func NewLocalVoronoi(numPoints, tracked int, rc float64) *LocalVoronoi {
	if rc <= 0 {
		panic("partition: rc must be positive")
	}
	return &LocalVoronoi{
		rc2:    rc * rc,
		slotOf: make([]int32, numPoints),
		slots:  make([]voronoiSlot, 0, tracked),
		owners: make([]int, 0, tracked),
	}
}

// takes reports whether sensor id at squared distance d2 from a point
// takes it from owner (-1 = orphan) at squared distance ownerD2: id lies
// within rc and is strictly closer, or equally close with the lower id.
func (v *LocalVoronoi) takes(id int, d2 float64, owner int, ownerD2 float64) bool {
	switch {
	case d2 > v.rc2:
		return false
	case owner < 0:
		return true
	case d2 != ownerD2:
		return d2 < ownerD2
	default:
		return id < owner
	}
}

// Track starts tracking sample point i as an orphan. Before Link, offer
// it the sensors already deployed with Candidate. Slots are numbered
// from 0 in Track order.
func (v *LocalVoronoi) Track(i int) {
	if v.slotOf[i] != 0 {
		panic("partition: sample point tracked twice")
	}
	v.slots = append(v.slots, voronoiSlot{pt: int32(i), owner: -1})
	v.slotOf[i] = int32(len(v.slots))
	v.owners = append(v.owners, -1)
}

// Candidate offers sensor id, at squared distance d2 from tracked point
// i, as the point's owner when the run starts. Offer every sensor that
// may lie within rc, in any order, then call Link once, before adding
// nodes.
func (v *LocalVoronoi) Candidate(i, id int, d2 float64) {
	s := v.slotOf[i] - 1
	if v.takes(id, d2, v.owners[s], v.slots[s].d2) {
		v.owners[s], v.slots[s].d2 = id, d2
	}
}

// Link makes the owners Candidate chose the first nodes, ascending by
// id, and links every tracked point to its owner; pos returns a sensor's
// position. Sensors that own no tracked point get no node: only nodes
// added later claim points, so they could never gain one.
func (v *LocalVoronoi) Link(pos func(id int) geom.Point) {
	ids := slices.Clone(v.owners)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) > 0 && ids[0] < 0 {
		ids = ids[1:] // orphans
	}
	v.nodes = make([]voronoiNode, len(ids))
	for n, id := range ids {
		v.nodes[n] = voronoiNode{id: id, pos: pos(id), head: -1}
	}
	for s, id := range v.owners {
		if id >= 0 {
			n, _ := slices.BinarySearch(ids, id)
			v.link(int32(s), int32(n))
		}
	}
	v.owners = nil
}

// AddNode registers sensor id at p as the newest node, owning nothing
// yet, and returns its node index. Offer it the points around p.
func (v *LocalVoronoi) AddNode(id int, p geom.Point) int {
	v.nodes = append(v.nodes, voronoiNode{id: id, pos: p, head: -1})
	return len(v.nodes) - 1
}

// Offer gives sample point i, at squared distance d2 from node n, to n
// if the point is tracked and n takes it from its owner by the rule
// above. The untracked-point test inlines into the caller's ball query.
func (v *LocalVoronoi) Offer(i, n int, d2 float64) {
	if s := v.slotOf[i]; s != 0 {
		v.offer(s-1, n, d2)
	}
}

func (v *LocalVoronoi) offer(s int32, n int, d2 float64) {
	sl := &v.slots[s]
	owner := -1
	if sl.owner >= 0 {
		owner = v.nodes[sl.owner].id
	}
	if !v.takes(v.nodes[n].id, d2, owner, sl.d2) {
		return
	}
	if sl.owner >= 0 {
		v.unlink(s)
	}
	sl.d2 = d2
	v.link(s, int32(n))
}

// link prepends slot s to node n's list.
func (v *LocalVoronoi) link(s, n int32) {
	sl := &v.slots[s]
	sl.owner, sl.prev, sl.next = n, -1, v.nodes[n].head
	if sl.next >= 0 {
		v.slots[sl.next].prev = s
	}
	v.nodes[n].head = s
}

// unlink removes slot s from its owner's list.
func (v *LocalVoronoi) unlink(s int32) {
	sl := &v.slots[s]
	if sl.prev >= 0 {
		v.slots[sl.prev].next = sl.next
	} else {
		v.nodes[sl.owner].head = sl.next
	}
	if sl.next >= 0 {
		v.slots[sl.next].prev = sl.prev
	}
}

// NumNodes returns the number of nodes.
func (v *LocalVoronoi) NumNodes() int { return len(v.nodes) }

// Node returns node n's sensor id and position.
func (v *LocalVoronoi) Node(n int) (id int, pos geom.Point) {
	return v.nodes[n].id, v.nodes[n].pos
}

// First returns the slot of the first point node n owns, -1 when it owns
// none. Next and SlotPoint continue the walk, in unspecified order and
// without allocating:
//
//	for s := v.First(n); s >= 0; s = v.Next(s) { i := v.SlotPoint(s) ... }
func (v *LocalVoronoi) First(n int) int32 { return v.nodes[n].head }

// Next returns the slot after s in its owner's list, -1 at the end.
func (v *LocalVoronoi) Next(s int32) int32 { return v.slots[s].next }

// SlotPoint returns the sample point tracked in slot s.
func (v *LocalVoronoi) SlotPoint(s int32) int { return int(v.slots[s].pt) }
