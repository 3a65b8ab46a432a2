package coverage

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"decor/internal/geom"
	"decor/internal/index"
)

// sensorTable holds a map's deployed sensors: one slot per sensor in one
// slice, the slots of each bucket of the point index chained into a
// list, and the one hash map from caller-chosen ID to slot (IDs reach
// 2^53−1, so that lookup cannot be an array). A removed sensor's slot
// goes on a free list, chained through next, and is reused first. An
// add or remove therefore costs one map write and no per-bucket
// allocation, and a copy is three slices and one map.
type sensorTable struct {
	geo    *index.Buckets // the point index's buckets, shared and immutable
	slots  []sensorSlot
	slotOf map[int]int32
	heads  []int32 // per bucket: its first slot, -1 when empty
	free   int32   // first free slot, -1 when none
	// ids mirrors slotOf's keys in ascending order, kept in step on
	// every add and remove so SensorIDs never sorts. Failure models draw
	// from it thousands of times per experiment cell.
	ids []int
}

// sensorSlot is one deployed sensor.
type sensorSlot struct {
	id   int
	pos  geom.Point
	rs   float64
	next int32 // next slot of the same bucket (or of the free list), -1 ends
}

func newSensorTable(geo *index.Buckets) sensorTable {
	t := sensorTable{
		geo:    geo,
		slotOf: make(map[int]int32),
		heads:  make([]int32, geo.NumBuckets()),
		free:   -1,
	}
	for b := range t.heads {
		t.heads[b] = -1
	}
	return t
}

// clone returns an independent copy sharing only the bucket geometry.
func (t *sensorTable) clone() sensorTable {
	c := *t
	c.slots = append([]sensorSlot(nil), t.slots...)
	c.heads = append([]int32(nil), t.heads...)
	c.ids = append([]int(nil), t.ids...)
	c.slotOf = maps.Clone(t.slotOf)
	return c
}

// get returns sensor id's slot, or nil when it is not deployed.
func (t *sensorTable) get(id int) *sensorSlot {
	if s, ok := t.slotOf[id]; ok {
		return &t.slots[s]
	}
	return nil
}

// mustBeNew panics when sensor id is already deployed.
func (t *sensorTable) mustBeNew(id int) {
	if _, ok := t.slotOf[id]; ok {
		panic(fmt.Sprintf("coverage: duplicate sensor id %d", id))
	}
}

// add deploys sensor id, which mustBeNew, at p with radius rs.
func (t *sensorTable) add(id int, p geom.Point, rs float64) {
	s := t.free
	if s >= 0 {
		t.free = t.slots[s].next
	} else {
		s = int32(len(t.slots))
		t.slots = append(grow(t.slots), sensorSlot{})
	}
	b := t.geo.Of(p)
	t.slots[s] = sensorSlot{id: id, pos: p, rs: rs, next: t.heads[b]}
	t.heads[b] = s
	t.slotOf[id] = s
	// Placement engines allocate IDs in increasing order, so the append
	// path is the common case.
	if n := len(t.ids); n == 0 || id > t.ids[n-1] {
		t.ids = append(grow(t.ids), id)
		return
	}
	i := sort.SearchInts(t.ids, id)
	t.ids = append(grow(t.ids), 0)
	copy(t.ids[i+1:], t.ids[i:])
	t.ids[i] = id
}

// grow returns s with room for one more element. A full slice doubles
// (to at least 64): past 256 elements append adds only about a quarter,
// and a clone starts full, so a map that doubles its sensors would copy
// them several times over.
func grow[E any](s []E) []E {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 64))
}

// remove withdraws sensor id and returns what its slot held, reporting
// whether it was deployed.
func (t *sensorTable) remove(id int) (sensorSlot, bool) {
	s, ok := t.slotOf[id]
	if !ok {
		return sensorSlot{}, false
	}
	old := t.slots[s]
	at := &t.heads[t.geo.Of(old.pos)]
	for *at != s {
		at = &t.slots[*at].next
	}
	*at = old.next
	t.slots[s] = sensorSlot{next: t.free}
	t.free = s
	delete(t.slotOf, id)
	i := sort.SearchInts(t.ids, id)
	t.ids = append(t.ids[:i], t.ids[i+1:]...)
	return old, true
}
