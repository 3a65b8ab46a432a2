package experiment

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"decor/internal/metrics"
)

// withProcs runs f with GOMAXPROCS set to procs, restoring it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestForEachCellCoversAllCells(t *testing.T) {
	for _, procs := range []int{1, 3, 16} {
		var hits [97]atomic.Int32
		withProcs(procs, func() {
			forEachCell(len(hits), func(i int) { hits[i].Add(1) })
			// n == 0 must be a no-op, not a hang.
			forEachCell(0, func(i int) { t.Fatalf("job ran for n=0") })
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("GOMAXPROCS=%d: cell %d executed %d times", procs, i, got)
			}
		}
	}
}

// The headline property: figure output is byte-identical for any
// GOMAXPROCS. Run under -race (make check does) this also proves the
// fan-out is data-race-free.
func TestParallelFiguresIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 2
	for _, id := range []string{"fig8", "fig10", "fig11", "fig13"} {
		var fseq, fpar Figure
		var errSeq, errPar error
		withProcs(1, func() { fseq, errSeq = ByID(id, cfg) })
		withProcs(4, func() { fpar, errPar = ByID(id, cfg) })
		if errSeq != nil || errPar != nil {
			t.Fatal(errSeq, errPar)
		}
		if !reflect.DeepEqual(fseq, fpar) {
			t.Errorf("%s: parallel output differs from sequential\nseq:\n%s\npar:\n%s",
				id, fseq.Table(), fpar.Table())
		}
	}
}

func TestParallelDeploymentsIdentical(t *testing.T) {
	var a, b []metrics.Deployment
	withProcs(1, func() { a = Deployments(Quick(), 2) })
	withProcs(4, func() { b = Deployments(Quick(), 2) })
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Deployments differ from sequential")
	}
}

// failureEval must agree with a from-scratch evaluation, including dead
// sensors in the failed set and repeated reuse of the scratch.
func TestFailureEvalMatchesOneShot(t *testing.T) {
	cfg := Quick()
	m := cfg.NewMap(2, 0)
	eval := newFailureEval(m)
	ids := m.SensorIDs()
	sets := [][]int{
		nil,
		{ids[0]},
		ids[:len(ids)/2],
		append([]int{999999}, ids[:3]...), // unknown id is skipped
		ids,
	}
	for _, level := range []int{1, 2} {
		for si, failed := range sets {
			want := coverageAfterFailure(m, failed, level)
			if got := eval.after(failed, level); got != want {
				t.Fatalf("set %d level %d: eval %v, one-shot %v", si, level, got, want)
			}
		}
	}
}
