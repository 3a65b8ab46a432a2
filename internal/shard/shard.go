// Package shard is the bounded worker pool shared by every
// embarrassingly parallel sweep in the repo: the figure-experiment cells
// (internal/experiment), the multi-scenario decor-sim CLI, and the chaos
// seed sweep (internal/chaos.Sweep). Jobs are indexed 0..n-1, claim work
// from an atomic cursor, and must write only to their own result slots;
// callers aggregate after the join in slot order, which is what makes
// every sharded output byte-identical for any worker count.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs job(0), …, job(n-1) across up to GOMAXPROCS goroutines
// (never more than n) and blocks until every job has finished. With one
// effective worker it runs inline — no goroutines, so single-threaded
// callers keep deterministic stack traces and zero scheduling overhead.
func ForEach(n int, job func(i int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
