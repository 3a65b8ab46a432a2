package service

import (
	"container/list"
	"strconv"
	"sync"
)

// planCacheSize is how many finished plans the cache holds: a
// constant, like the point-set registry's byte budget (DESIGN.md §9).
const planCacheSize = 512

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
	// every response served from the entry so serving one assigns a
	// slice instead of allocating it.
	clen []string
}

// newPlanCache returns a cache holding up to max entries.
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
// when full, and returns the entry's body and shared Content-Length
// value. When key already holds an entry — a concurrent miss of the
// same bytes stored it first — Put keeps the first bytes (identical by
// determinism) and returns them. Callers must never mutate body
// afterwards.
func (c *planCache) Put(key reqKey, body []byte) ([]byte, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		return e.body, e.clen
	}
	e := &cacheEntry{key: key, body: body, clen: []string{strconv.Itoa(len(body))}}
	c.items[key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*cacheEntry).key)
	}
	return e.body, e.clen
}
