package obs

import (
	"sync"
	"testing"
)

// TestHistogramSnapshotNotTorn hammers Observe from several goroutines
// while snapshotting continuously, asserting every snapshot is
// internally consistent: Count equals the sum of the bucket counts, and
// Sum is exactly attributable to those observations (all observations
// have value 1, so Sum must equal Count). The pre-fix Observe bumped
// count and sum in separate unsynchronized atomics, so a concurrent
// snapshot could see them torn; run with -race to also prove the shared
// mutex is data-race-free.
func TestHistogramSnapshotNotTorn(t *testing.T) {
	h := new(Histogram)
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapErr error
	var snapMu sync.Mutex
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.snapshot()
				var bucketSum uint64
				for _, c := range s.Counts {
					bucketSum += c
				}
				if bucketSum != s.Count || s.Sum != float64(s.Count) {
					snapMu.Lock()
					if snapErr == nil {
						snapErr = &tornError{count: s.Count, buckets: bucketSum, sum: s.Sum}
					}
					snapMu.Unlock()
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(1)
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	final := h.snapshot()
	if final.Count != writers*perWriter || final.Sum != float64(writers*perWriter) {
		t.Fatalf("final count=%d sum=%v, want %d", final.Count, final.Sum, writers*perWriter)
	}
}

type tornError struct {
	count, buckets uint64
	sum            float64
}

func (e *tornError) Error() string {
	return "torn snapshot"
}

func (e *tornError) String() string { return e.Error() }
