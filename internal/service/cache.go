package service

import (
	"container/list"
	"strconv"
	"sync"
)

// planCache is a fixed-capacity LRU over request keys: the digest of an
// endpoint tag and a body's exact bytes (readKeyed). Values are the
// finished response bodies — immutable byte slices served verbatim, so
// a hit is byte-identical to the miss that populated it. A hit is found
// before the body is decoded, so it pays no decoding, validation or
// copy of its lists. Keys are fixed-size digests (reqKey), so the map
// probes without hashing a string and Get allocates nothing.
type planCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[reqKey]*list.Element
}

type cacheEntry struct {
	key  reqKey
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
	}
}

// Get returns the cached body and its shared Content-Length value for
// key, refreshing the entry's recency.
func (c *planCache) Get(key reqKey) ([]byte, []string, bool) {
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
	e := el.Value.(*cacheEntry)
	return e.body, e.clen, true
}

// Put stores body under key, evicting the least recently used entry
// when full. Callers must never mutate body afterwards. The returned
// slice is the entry's shared Content-Length value (nil when caching is
// off).
func (c *planCache) Put(key reqKey, body []byte) []string {
	if c.max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// A singleflight leader already stored this key; keep the
		// existing bytes (identical by determinism) and just refresh.
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).clen
	}
	e := &cacheEntry{key: key, body: body, clen: []string{strconv.Itoa(len(body))}}
	c.items[key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*cacheEntry).key)
	}
	return e.clen
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
