package coverage

import (
	"testing"

	"decor/internal/geom"
	"decor/internal/rng"
)

func scatter(m *Map, n int, seed uint64) {
	r := rng.New(seed)
	for id := 0; id < n; id++ {
		m.AddSensor(id, r.PointInRect(m.Field()))
	}
}

func TestCountsIntoMatchesCounts(t *testing.T) {
	m := newTestMap(3)
	scatter(m, 40, 5)
	want := make([]int, m.NumPoints())
	for i := range want {
		want[i] = m.Count(i)
	}
	// Undersized, exact, and oversized destination buffers.
	for _, dst := range [][]int{nil, make([]int, 3), make([]int, len(want)), make([]int, len(want)+100)} {
		got := m.CountsInto(dst)
		if len(got) != len(want) {
			t.Fatalf("CountsInto len = %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CountsInto[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
	// A big-enough buffer is reused, not reallocated.
	buf := make([]int, m.NumPoints())
	got := m.CountsInto(buf)
	if &got[0] != &buf[0] {
		t.Error("CountsInto reallocated a sufficient buffer")
	}
	// The snapshot is detached from the live counts.
	m.AddSensor(1000, m.Point(0))
	if got[0] == m.Count(0) && want[0] != m.Count(0) {
		t.Error("CountsInto snapshot tracks live counts")
	}
}

func TestAppendBallVariantsMatchSorted(t *testing.T) {
	m := newTestMap(2)
	scatter(m, 30, 9)
	r := rng.New(10)
	ptBuf := make([]int, 0, 64)
	sBuf := make([]int, 0, 64)
	for trial := 0; trial < 40; trial++ {
		c := r.PointInRect(m.Field())
		rad := r.Float64() * 12
		wantPts := m.AppendPointsInBall(nil, c, rad)
		ptBuf = m.AppendPointsInBall(ptBuf[:0], c, rad)
		if len(ptBuf) != len(wantPts) {
			t.Fatalf("trial %d: points %d, want %d", trial, len(ptBuf), len(wantPts))
		}
		for i := range wantPts {
			if ptBuf[i] != wantPts[i] {
				t.Fatalf("trial %d: point %d = %d, want %d", trial, i, ptBuf[i], wantPts[i])
			}
		}
		wantS := m.SensorsInBall(c, rad)
		sBuf = m.AppendSensorsInBall(sBuf[:0], c, rad)
		if len(sBuf) != len(wantS) {
			t.Fatalf("trial %d: sensors %d, want %d", trial, len(sBuf), len(wantS))
		}
		for i := range wantS {
			if sBuf[i] != wantS[i] {
				t.Fatalf("trial %d: sensor %d = %d, want %d", trial, i, sBuf[i], wantS[i])
			}
		}
		visited := map[int]bool{}
		m.VisitSensorsInBall(c, rad, func(id int, p geom.Point) bool {
			if sp, _ := m.SensorPos(id); sp != p || visited[id] {
				t.Fatalf("trial %d: visited sensor %d at %v (stored %v, repeat %v)", trial, id, p, sp, visited[id])
			}
			visited[id] = true
			return true
		})
		if len(visited) != len(wantS) || m.CountSensorsInBall(c, rad) != len(wantS) {
			t.Fatalf("trial %d: visited %d, counted %d sensors, want %d",
				trial, len(visited), m.CountSensorsInBall(c, rad), len(wantS))
		}
		for _, id := range wantS {
			if !visited[id] {
				t.Fatalf("trial %d: sensor %d not visited", trial, id)
			}
		}
	}
	// Appending after a non-empty prefix sorts only the appended tail.
	pre := []int{999}
	got := m.AppendPointsInBall(pre, geom.Pt(50, 50), 6)
	if got[0] != 999 {
		t.Errorf("prefix overwritten: %v", got[:1])
	}
	for i := 2; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("appended tail not sorted at %d", i)
		}
	}
}

func TestPointNeighborhoodsMatchPointsInBall(t *testing.T) {
	m := newTestMap(1)
	nb := m.PointNeighborhoods(4)
	if nb.Len() != m.NumPoints() {
		t.Fatalf("Len = %d, want %d", nb.Len(), m.NumPoints())
	}
	for i := 0; i < m.NumPoints(); i += 17 {
		want := m.AppendPointsInBall(nil, m.Point(i), 4)
		got := nb.At(i)
		if len(got) != len(want) {
			t.Fatalf("point %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for j := range want {
			if int(got[j]) != want[j] {
				t.Fatalf("point %d neighbor %d: %d want %d", i, j, got[j], want[j])
			}
		}
	}
}
