package shard

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, tc := range []struct{ req, n, want int }{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{8, 3, 3},
		{1, 0, 0},
	} {
		if got := Workers(tc.req, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.req, tc.n, got, tc.want)
		}
	}
}

// TestForEachCoversEveryIndexOnce drives the pool at several worker
// counts and asserts each job index runs exactly once.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 137
		var counts [n]atomic.Int32
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	ForEach(0, 4, func(int) { t.Fatal("job invoked for n=0") })
}

// TestForEachSlotOrderIndependentOfWorkers is the merge-determinism
// property every sharded sweep relies on: results written to per-index
// slots read back identically for any worker count.
func TestForEachSlotOrderIndependentOfWorkers(t *testing.T) {
	const n = 64
	run := func(workers int) [n]int {
		var out [n]int
		ForEach(n, workers, func(i int) { out[i] = i * i })
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 5, 16} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: slot contents diverged", workers)
		}
	}
}
