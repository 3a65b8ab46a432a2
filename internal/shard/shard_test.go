package shard

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs f with GOMAXPROCS set to procs, restoring it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestWorkers: the pool runs min(GOMAXPROCS, n) jobs at once, so never
// more than n, and one at a time when GOMAXPROCS is 1.
func TestWorkers(t *testing.T) {
	for _, tc := range []struct{ procs, n, want int }{
		{1, 8, 1},
		{4, 100, 4},
		{8, 3, 3},
	} {
		var running, peak atomic.Int32
		gate := make(chan struct{})
		withProcs(tc.procs, func() {
			go func() {
				// Hold every job until the pool is as wide as it will get.
				for running.Load() < int32(tc.want) {
					runtime.Gosched()
				}
				close(gate)
			}()
			ForEach(tc.n, func(int) {
				now := running.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				<-gate
				running.Add(-1)
			})
		})
		if got := peak.Load(); got != int32(tc.want) {
			t.Errorf("GOMAXPROCS=%d n=%d: %d jobs ran at once, want %d", tc.procs, tc.n, got, tc.want)
		}
	}
}

// TestForEachCoversEveryIndexOnce drives the pool at several GOMAXPROCS
// settings and asserts each job index runs exactly once.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 64} {
		const n = 137
		var counts [n]atomic.Int32
		withProcs(procs, func() { ForEach(n, func(i int) { counts[i].Add(1) }) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("GOMAXPROCS=%d: job %d ran %d times", procs, i, c)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	ForEach(0, func(int) { t.Fatal("job invoked for n=0") })
}

// TestForEachSlotOrderIndependentOfWorkers is the merge-determinism
// property every sharded sweep relies on: results written to per-index
// slots read back identically for any pool size.
func TestForEachSlotOrderIndependentOfWorkers(t *testing.T) {
	const n = 64
	run := func(procs int) [n]int {
		var out [n]int
		withProcs(procs, func() { ForEach(n, func(i int) { out[i] = i * i }) })
		return out
	}
	want := run(1)
	for _, procs := range []int{2, 5, 16} {
		if got := run(procs); got != want {
			t.Errorf("GOMAXPROCS=%d: slot contents diverged", procs)
		}
	}
}
