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

// Workers resolves a requested worker count: non-positive means
// GOMAXPROCS, and the result never exceeds n (one goroutine per job is
// the useful maximum).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// ForEach runs job(0), …, job(n-1) across up to `workers` goroutines
// (non-positive: GOMAXPROCS) and blocks until every job has finished.
// With one effective worker it runs inline — no goroutines, so
// single-threaded callers keep deterministic stack traces and zero
// scheduling overhead.
func ForEach(n, workers int, job func(i int)) {
	w := Workers(workers, n)
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
