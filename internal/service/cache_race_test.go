package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// testKey derives a distinct reqKey from an arbitrary label, standing in
// for the canonical request digest in cache/flight unit tests.
func testKey(label string) reqKey {
	return sha256.Sum256([]byte(label))
}

// TestSingleflightSurvivesEvictionChurn is a regression test for the
// interaction between the LRU byte-cache and singleflight coalescing
// when the in-flight key is evicted mid-computation. A tiny cache is
// churned hard while leaders compute, so the hot key's entry is evicted
// between the leader's Put and everything that follows. The contract
// under test: followers always replay the leader's exact bytes (they
// read the flightCall, never the cache), a retired flight never wedges
// later requests, and the cache never exceeds capacity or serves torn
// bytes. Run under -race this also proves the Put/Get/begin/finish
// interleavings are properly synchronized.
func TestSingleflightSurvivesEvictionChurn(t *testing.T) {
	const (
		rounds    = 200
		followers = 4
		capacity  = 2
	)
	cache := newPlanCache(capacity)
	flights := newFlightGroup()

	// Churn goroutines continuously push junk keys, forcing evictions —
	// including of the hot key whenever a leader has just stored it.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					k := testKey(fmt.Sprintf("junk-%d-%d", g, i%8))
					cache.Put(k, k, []byte("junk"))
				}
			}
		}(g)
	}

	hot, hotRaw := testKey("hot-key"), testKey("hot-body")
	for r := 0; r < rounds; r++ {
		want := []byte(fmt.Sprintf("round-%d-body", r))

		// All participants race begin(). More than one leader per round
		// is legal — a late requester can miss the already-evicted key
		// after the first flight retired and start a fresh one — but by
		// request determinism every leader computes identical bytes, so
		// followers of any flight must still see this round's body.
		var (
			wg      sync.WaitGroup
			leaders int
			mu      sync.Mutex
		)
		for f := 0; f < followers+1; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if body, _, ok := cache.Get(hot, hotRaw); ok {
					// Only this round's leader ever stores the hot key
					// (the previous round's entry was flushed), so a hit
					// must be this round's exact bytes — anything else is
					// a torn or stale body leaking through eviction.
					if !bytes.Equal(body, want) {
						t.Errorf("round %d: cache hit %q, want %q", r, body, want)
					}
					return
				}
				call, leader := flights.begin(hot)
				if leader {
					mu.Lock()
					leaders++
					mu.Unlock()
					cache.Put(hot, hotRaw, want)
					flights.finish(hot, call, want, 200, nil)
					return
				}
				<-call.done
				if !bytes.Equal(call.body, want) {
					t.Errorf("round %d: follower got %q, want %q", r, call.body, want)
				}
			}()
		}
		wg.Wait()
		if leaders < 1 {
			t.Fatalf("round %d: no leader elected despite a cold key", r)
		}
		if n := cache.Len(); n > capacity {
			t.Fatalf("round %d: cache holds %d entries, capacity %d", r, n, capacity)
		}
		// The flight must be retired: a fresh begin must elect a new
		// leader immediately rather than joining a closed call.
		call, leader := flights.begin(hot)
		if !leader {
			t.Fatalf("round %d: finished flight still registered", r)
		}
		flights.finish(hot, call, want, 200, nil)
		// Evict the hot key so the next round's Get misses and the
		// leader-election path is exercised again.
		for i := 0; i <= capacity; i++ {
			k := testKey(fmt.Sprintf("flush-%d-%d", r, i))
			cache.Put(k, k, []byte("junk"))
		}
	}
	close(stop)
	churn.Wait()
}

// TestRawAliasesSurviveEvictionChurn churns raw-body hits against
// evictions: goroutines look bodies up by alias, re-alias entries
// through canonical hits with two encodings of each request, and put
// entries back when both miss, while a four-entry cache evicts all the
// time. A raw hit must serve the bytes of the request whose body it
// names, never another's, and after every round each alias must name a
// live entry that names it back, so aliases never outnumber entries.
// Run under -race this also checks the tiers share one lock.
func TestRawAliasesSurviveEvictionChurn(t *testing.T) {
	const (
		requests = 16
		workers  = 4
		rounds   = 200
		capacity = 4
	)
	cache := newPlanCache(capacity)
	type request struct {
		key  reqKey
		raw  [2]reqKey // two encodings of one request
		body []byte
	}
	reqs := make([]request, requests)
	for i := range reqs {
		reqs[i] = request{
			key:  testKey(fmt.Sprintf("key-%d", i)),
			raw:  [2]reqKey{testKey(fmt.Sprintf("body-%d-a", i)), testKey(fmt.Sprintf("body-%d-b", i))},
			body: []byte(fmt.Sprintf("plan-%d", i)),
		}
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 4*requests; i++ {
					q := &reqs[(i*(w+1)+r)%requests]
					raw := q.raw[(i+w)%2]
					if body, _, ok := cache.Raw(raw); ok {
						if !bytes.Equal(body, q.body) {
							t.Errorf("raw hit served %q, want %q", body, q.body)
						}
						continue
					}
					if body, _, ok := cache.Get(q.key, raw); ok {
						if !bytes.Equal(body, q.body) {
							t.Errorf("canonical hit served %q, want %q", body, q.body)
						}
						continue
					}
					cache.Put(q.key, raw, q.body)
				}
			}(w)
		}
		wg.Wait()
		checkAliases(t, cache)
	}
}

// checkAliases holds the cache's alias invariant: every alias names a
// live entry whose alias it is, so an entry has at most one and an
// evicted entry none.
func checkAliases(t *testing.T, c *planCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.items) > c.max || c.order.Len() != len(c.items) {
		t.Fatalf("%d entries in the map, %d in the list, capacity %d", len(c.items), c.order.Len(), c.max)
	}
	if len(c.raw) > len(c.items) {
		t.Fatalf("%d aliases for %d entries", len(c.raw), len(c.items))
	}
	for raw, el := range c.raw {
		e := el.Value.(*cacheEntry)
		if c.items[e.key] != el {
			t.Fatalf("alias %x names an evicted entry", raw[:4])
		}
		if e.raw != raw {
			t.Fatalf("alias %x names an entry whose alias is %x", raw[:4], e.raw[:4])
		}
	}
}
