package service

import (
	"container/list"
	"strconv"
	"sync"
)

// planCache is a fixed-capacity LRU over canonical request keys. Values
// are the finished response bodies — immutable byte slices served
// verbatim, so a hit is byte-identical to the miss that populated it.
// Keys are fixed-size digests (reqKey), so the map probes without
// hashing a string and Get allocates nothing.
//
// In front of the canonical keys sits a tier keyed by raw body digests
// (readKeyed): each entry carries at most one alias, the digest of the
// last exact body that decoded, validated and reached it. A repeated
// body is looked up by its bytes alone, so it skips decoding,
// normalization and the canonical key. The tier holds no bodies of its
// own: an alias lives and dies with its entry, so the capacity bounds
// both tiers, and a disabled cache disables both.
type planCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[reqKey]*list.Element
	// raw maps an alias to its entry; raw[k] == el implies el's entry
	// has alias k, so an entry whose alias moved on no longer owns it.
	raw map[reqKey]*list.Element
}

type cacheEntry struct {
	key  reqKey
	raw  reqKey // the alias, when raw[raw] is this entry's element
	body []byte
	// clen is the pre-rendered Content-Length header value, shared by
	// every hit so serving one assigns a slice instead of allocating it.
	clen []string
}

// newPlanCache returns a cache holding up to max entries; max <= 0
// disables caching (every lookup misses, Put is a no-op).
func newPlanCache(max int) *planCache {
	return &planCache{
		max:   max,
		order: list.New(),
		items: make(map[reqKey]*list.Element),
		raw:   make(map[reqKey]*list.Element),
	}
}

// Raw returns the cached body and its shared Content-Length value for
// the body whose raw digest is raw, refreshing the entry's recency.
func (c *planCache) Raw(raw reqKey) ([]byte, []string, bool) {
	if c.max <= 0 {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.raw[raw]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.body, e.clen, true
}

// Get returns the cached body and its shared Content-Length value for
// key, refreshing the entry's recency, and makes raw — the digest of
// the body that decoded to key — the entry's alias.
func (c *planCache) Get(key, raw reqKey) ([]byte, []string, bool) {
	if c.max <= 0 {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	c.alias(el, raw)
	e := el.Value.(*cacheEntry)
	return e.body, e.clen, true
}

// Put stores body under key with raw as its alias, evicting the least
// recently used entry when full. Callers must never mutate body
// afterwards. The returned slice is the entry's shared Content-Length
// value (nil when caching is off).
func (c *planCache) Put(key, raw reqKey, body []byte) []string {
	if c.max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// A singleflight leader already stored this key; keep the
		// existing bytes (identical by determinism) and just refresh.
		c.order.MoveToFront(el)
		c.alias(el, raw)
		return el.Value.(*cacheEntry).clen
	}
	e := &cacheEntry{key: key, body: body, clen: []string{strconv.Itoa(len(body))}}
	el := c.order.PushFront(e)
	c.items[key] = el
	c.alias(el, raw)
	for c.order.Len() > c.max {
		old := c.order.Back()
		c.order.Remove(old)
		c.unalias(old)
		delete(c.items, old.Value.(*cacheEntry).key)
	}
	return e.clen
}

// alias makes raw el's only alias, replacing the one it had. Callers
// hold c.mu.
func (c *planCache) alias(el *list.Element, raw reqKey) {
	c.unalias(el)
	c.raw[raw] = el
	el.Value.(*cacheEntry).raw = raw
}

// unalias drops el's alias if el still owns it. Callers hold c.mu.
func (c *planCache) unalias(el *list.Element) {
	if raw := el.Value.(*cacheEntry).raw; c.raw[raw] == el {
		delete(c.raw, raw)
	}
}

// Len returns the current entry count.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup coalesces concurrent identical requests: the first caller
// of begin for a key becomes the leader and computes the plan once;
// followers block on the call's done channel and replay the leader's
// exact response bytes, or its planning error, with its status.
type flightGroup struct {
	mu    sync.Mutex
	calls map[reqKey]*flightCall
}

type flightCall struct {
	done chan struct{}
	// Set by the leader before close(done); immutable afterwards. Status
	// 0: the leader got no outcome a follower may share (see lead).
	body   []byte
	err    error
	status int
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[reqKey]*flightCall)}
}

// begin joins the in-flight computation for key, creating it when
// absent. leader reports whether the caller must compute and finish.
func (g *flightGroup) begin(key reqKey) (call *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call, ok := g.calls[key]; ok {
		return call, false
	}
	call = &flightCall{done: make(chan struct{})}
	g.calls[key] = call
	return call, true
}

// finish publishes the leader's outcome to all followers and retires the
// key; later requests start a fresh flight (or hit the cache). Only the
// first finish of a call publishes; later ones do nothing.
func (g *flightGroup) finish(key reqKey, call *flightCall, body []byte, status int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls[key] != call {
		return
	}
	call.body, call.status, call.err = body, status, err
	delete(g.calls, key)
	close(call.done)
}
