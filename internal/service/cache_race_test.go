package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// testKey derives a distinct reqKey from an arbitrary label, standing in
// for a body's digest in cache unit tests.
func testKey(label string) reqKey {
	return sha256.Sum256([]byte(label))
}

// TestCacheSurvivesEvictionChurn: concurrent misses of one key race to
// Put it while a tiny cache is churned hard, so the hot key is evicted
// between one request's Put and the next one's Get. The contract under
// test: a hit, and the bytes Put hands back to a miss, are always this
// round's exact bytes, and the cache never exceeds its capacity. Run
// under -race this also proves the Get/Put/eviction interleavings are
// properly synchronized.
func TestCacheSurvivesEvictionChurn(t *testing.T) {
	const (
		rounds   = 200
		requests = 5
		capacity = 2
	)
	cache := newPlanCache(capacity)

	// Churn goroutines continuously push junk keys, forcing evictions —
	// including of the hot key whenever a request has just stored it.
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

		// Each request plans on a miss. By request determinism every
		// miss computes identical bytes, and only this round's requests
		// store the hot key (the previous round's entry was flushed), so
		// a hit or a Put must hand back this round's exact bytes —
		// anything else is a torn or stale body leaking through
		// eviction.
		var wg sync.WaitGroup
		for q := 0; q < requests; q++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if body, clen, ok := cache.Get(hot); ok {
					if !bytes.Equal(body, want) || clen[0] != fmt.Sprint(len(want)) {
						t.Errorf("round %d: cache hit %q (Content-Length %v), want %q", r, body, clen, want)
					}
					return
				}
				plan := append([]byte(nil), want...)
				if body, clen := cache.Put(hot, plan); !bytes.Equal(body, want) || clen[0] != fmt.Sprint(len(want)) {
					t.Errorf("round %d: Put handed back %q (Content-Length %v), want %q", r, body, clen, want)
				}
			}()
		}
		wg.Wait()
		if n := cache.Len(); n > capacity {
			t.Fatalf("round %d: cache holds %d entries, capacity %d", r, n, capacity)
		}
		// Evict the hot key so the next round's requests miss again.
		for i := 0; i <= capacity; i++ {
			k := testKey(fmt.Sprintf("flush-%d-%d", r, i))
			cache.Put(k, []byte("junk"))
		}
	}
	close(stop)
	churn.Wait()
}
