package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// privatePlan is executePlan on a map over a private point set
// (coverage.New) instead of the process-wide registry's, rendered by
// json.Marshal: the facade's steps — scatter from the seed's stream,
// then the method on a split of it — written out against the internal
// packages.
func privatePlan(t *testing.T, pr PlanRequest) []byte {
	t.Helper()
	gen, err := lowdisc.ByName(pr.Generator, pr.Seed)
	if err != nil {
		t.Fatal(err)
	}
	field := geom.Square(pr.FieldSide)
	m := coverage.New(field, gen.Points(pr.NumPoints, field), pr.Rs, pr.K)
	r := rng.New(pr.Seed)
	for id := 0; id < pr.Scatter; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	meth, err := core.MethodByName(pr.Method, pr.Rs)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := meth.(core.VoronoiDECOR); ok && pr.Method == "voronoi-small" {
		v.Rc = pr.Rc
		meth = v
	}
	res := meth.Deploy(m, r.Split(), core.Options{})
	resp := PlanResponse{
		Method:          res.Method,
		K:               pr.K,
		Placed:          res.NumPlaced(),
		TotalSensors:    m.NumSensors(),
		Messages:        res.Messages,
		MessagesPerCell: res.MessagesPerCell(),
		Rounds:          res.Rounds,
		Seeded:          res.Seeded,
		Placements:      make([]PointSpec, 0, len(res.Placed)),
		CoverageK:       m.CoverageFrac(pr.K),
		Coverage1:       m.CoverageFrac(1),
		Covered:         m.FullyCovered(),
	}
	for _, pl := range res.Placed {
		resp.Placements = append(resp.Placements, PointSpec{X: pl.Pos.X, Y: pl.Pos.Y})
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// Goroutines each plan one request at once through the service, every
// method twice over one point set that no other test uses, so the
// plans race to build the set, its index and its adjacency, then read
// them together. Each body equals the plan built on a private
// coverage.New map; under -race the shared set is also read without a
// data race.
func TestConcurrentPlansShareOnePointSet(t *testing.T) {
	s := newTestServer(t, Config{})
	var reqs []PlanRequest
	for i, method := range core.AllMethodNames() {
		for j := range 2 {
			reqs = append(reqs, PlanRequest{FieldSide: 70, K: 2, Rs: 3.5, NumPoints: 1200,
				Seed: uint64(10*i + j + 1), Scatter: 60, Method: method})
		}
	}
	bodies := make([][]byte, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reqs {
		b, err := json.Marshal(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(s.ts.URL+"/v1/plan", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if bodies[i], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, err %v, body %s", i, resp.StatusCode, err, bodies[i])
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, pr := range reqs {
		norm, err := pr.normalize(DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		if want := privatePlan(t, norm); !bytes.Equal(bodies[i], want) {
			t.Errorf("%s seed %d: shared-set body\n%s\ndiffers from the private-map plan\n%s", pr.Method, pr.Seed, bodies[i], want)
		}
	}
}
