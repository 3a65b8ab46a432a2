package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// testKey derives a distinct reqKey from an arbitrary label, standing in
// for a body's digest in cache/flight unit tests.
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
					cache.Put(k, []byte("junk"))
				}
			}
		}(g)
	}

	hot := testKey("hot-key")
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
				if body, _, ok := cache.Get(hot); ok {
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
					cache.Put(hot, want)
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
			cache.Put(k, []byte("junk"))
		}
	}
	close(stop)
	churn.Wait()
}
