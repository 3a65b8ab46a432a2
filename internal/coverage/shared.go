package coverage

import (
	"container/list"
	"sync"

	"decor/internal/geom"
	"decor/internal/lowdisc"
)

// sharedBudget caps the bytes the process-wide registry retains, the
// adjacencies built after a set's insertion included (DESIGN.md §9). It
// holds about 160 paper-scale sets (2000 points on side 100, 0.2 MB
// with their rs adjacency) or 10 sets of 20000 points on side 200
// (3.1 MB).
const sharedBudget = 32 << 20

// pointKey names one shared set. A generator value compares equal for
// two seeds exactly when it does not read the seed, so the key keeps
// the seed only for generators whose points depend on it.
type pointKey struct {
	gen   lowdisc.Generator
	n     int
	field geom.Rect
	rs    float64
}

// registry is an LRU of point sets under a byte budget. Evicting a set
// only drops the registry's reference: maps that hold it keep using it,
// and the next request for its key builds a fresh, equal set.
type registry struct {
	mu     sync.Mutex
	lru    list.List // of *sharedEntry, most recently used in front
	byKey  map[pointKey]*list.Element
	bytes  int64
	budget int64
}

type sharedEntry struct {
	key   pointKey
	ps    *PointSet
	bytes int64         // accounted in registry.bytes
	elem  *list.Element // nil once evicted
}

var shared = newRegistry(sharedBudget)

func newRegistry(budget int64) *registry {
	return &registry{byKey: make(map[pointKey]*list.Element), budget: budget}
}

// SharedPointSet returns the process-wide set of gen's n points over
// field, indexed for rs, building and registering it on first use.
// Every map over it — every request, session and experiment cell with
// the same key — shares its index, tiles and adjacencies.
func SharedPointSet(gen lowdisc.Generator, n int, field geom.Rect, rs float64) *PointSet {
	return shared.get(pointKey{gen, n, field, rs})
}

func (r *registry) get(k pointKey) *PointSet {
	if ps := r.lookup(k); ps != nil {
		return ps
	}
	ps := NewPointSet(k.field, k.gen.Points(k.n, k.field), k.rs)
	if k != k {
		return ps // a NaN never finds itself again: build, don't retain
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[k]; ok { // a concurrent first request won
		r.lru.MoveToFront(e)
		return e.Value.(*sharedEntry).ps
	}
	ent := &sharedEntry{key: k, ps: ps, bytes: ps.bytes.Load()}
	ps.grew = func(n int64) { r.grow(ent, n) }
	ent.elem = r.lru.PushFront(ent)
	r.byKey[k] = ent.elem
	r.bytes += ent.bytes
	r.evict()
	return ps
}

func (r *registry) lookup(k pointKey) *PointSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byKey[k]
	if !ok {
		return nil
	}
	r.lru.MoveToFront(e)
	return e.Value.(*sharedEntry).ps
}

// grow accounts an adjacency built on a registered set. An evicted set
// is no longer the registry's to count.
func (r *registry) grow(ent *sharedEntry, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ent.elem == nil {
		return
	}
	ent.bytes += n
	r.bytes += n
	r.evict()
}

// evict drops least recently used sets until the budget holds. A set
// larger than the whole budget is dropped too, right after its build.
func (r *registry) evict() {
	for r.bytes > r.budget {
		ent := r.lru.Remove(r.lru.Back()).(*sharedEntry)
		delete(r.byKey, ent.key)
		r.bytes -= ent.bytes
		ent.elem = nil
	}
}
