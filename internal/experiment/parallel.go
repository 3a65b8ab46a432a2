package experiment

import (
	"decor/internal/coverage"
	"decor/internal/shard"
)

// The figure workloads are embarrassingly parallel: every (method, k, run)
// cell builds its own map from deterministic RNG streams (DeployRNG,
// failRNG, restoreRNG) and writes one indexed result slot. The shared
// pool in internal/shard fans those cells across GOMAXPROCS goroutines;
// because each cell's inputs are derived only from (Config, cell index)
// and aggregation happens after the join in slot order, figure output is
// byte-identical for any GOMAXPROCS — the property
// TestParallelFiguresIdentical locks in.

// forEachCell executes job(0..n-1) on the shared pool. Jobs must be
// independent and write only to their own result slots. The call blocks
// until every job has finished.
func forEachCell(n int, job func(i int)) {
	shard.ForEach(n, job)
}

// failureEval answers "what fraction of points stays level-covered if
// these sensors fail?" repeatedly against one finished deployment. It
// precomputes each sensor's covered-point list once and reuses a counts
// scratch, so the failure-sweep inner loops (hundreds of draws per
// deployment in Figs. 11–12) do no spatial queries and no allocation.
// Not safe for concurrent use; each worker builds its own.
type failureEval struct {
	m         *coverage.Map
	base      []int       // live coverage counts, restored after each draw
	levelBase map[int]int // level -> #points with base count >= level
	ids       []int       // the deployment's sensors, ascending (snapshot)
	covered   [][]int     // covered[j] = points within m.Rs() of ids[j]
	built     []bool
	touched   []int // scratch: covered-list indices applied this draw
}

func newFailureEval(m *coverage.Map) *failureEval {
	ids := m.SensorIDs()
	return &failureEval{
		m:       m,
		ids:     ids,
		covered: make([][]int, len(ids)),
		built:   make([]bool, len(ids)),
	}
}

// after returns the fraction of sample points that would still be covered
// by at least level sensors if the given sensors failed, without mutating
// the map. Matches the paper's accounting: every sensor subtracts
// coverage over the map's default sensing radius.
//
// Two properties keep a draw cheap: failure models return IDs ascending,
// so the lookup is a merge walk over the sensor snapshot (out-of-order
// inputs still work — the walk restarts); and the level count is tracked
// through the decrements (a point leaves the level exactly when its count
// drops from level to level-1) and the counts undone afterwards, so no
// draw rescans all sample points.
func (e *failureEval) after(failed []int, level int) float64 {
	m := e.m
	if e.base == nil {
		e.base = m.CountsInto(nil)
		e.levelBase = make(map[int]int)
	}
	n, ok := e.levelBase[level]
	if !ok {
		for _, c := range e.base {
			if c >= level {
				n++
			}
		}
		e.levelBase[level] = n
	}
	e.touched = e.touched[:0]
	j, prev := 0, -1
	for _, id := range failed {
		if id < prev {
			j = 0 // unsorted input: restart the walk
		}
		prev = id
		for j < len(e.ids) && e.ids[j] < id {
			j++
		}
		if j == len(e.ids) || e.ids[j] != id {
			continue // unknown or already-dead sensor: skip
		}
		if !e.built[j] {
			if p, live := m.SensorPos(id); live {
				e.covered[j] = m.AppendPointsInBall(nil, p, m.Rs())
			}
			e.built[j] = true
		}
		e.touched = append(e.touched, j)
		for _, i := range e.covered[j] {
			if e.base[i] == level {
				n--
			}
			e.base[i]--
		}
	}
	for _, t := range e.touched {
		for _, i := range e.covered[t] {
			e.base[i]++
		}
	}
	if len(e.base) == 0 {
		return 1
	}
	return float64(n) / float64(len(e.base))
}

// coverageAfterFailure is the one-shot form of failureEval.after, kept for
// callers that evaluate a single failure set per deployment.
func coverageAfterFailure(m *coverage.Map, failed []int, level int) float64 {
	return newFailureEval(m).after(failed, level)
}
