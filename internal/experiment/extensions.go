package experiment

import (
	"fmt"
	"math"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/energy"
	"decor/internal/failure"
	"decor/internal/lowdisc"
	"decor/internal/network"
	"decor/internal/partition"
	"decor/internal/percover"
	"decor/internal/reliability"
	"decor/internal/rng"
	"decor/internal/stats"
)

// This file adds extension experiments beyond the paper's eight data
// figures: the ablations DESIGN.md §5 calls out, plus validations of the
// paper's §2 claims (k-connectivity corollary, reliability model,
// correlated failures) that the paper asserts but does not measure.

// ExtAreaEstimation quantifies the core premise of §3.2: how well a
// point set of size N estimates covered area, by generator family. The
// series report |point-set coverage estimate − fine-lattice estimate| in
// percentage points on a fixed random deployment, for N along the x
// axis.
func ExtAreaEstimation(cfg Config) Figure {
	ns := []float64{250, 500, 1000, 2000, 4000}
	fig := Figure{
		ID: "ext-area", Title: "Area-estimation error of the field approximation",
		XLabel: "points N", YLabel: "abs error vs lattice (pct points)",
	}
	field := cfg.Field()
	// One fixed partial deployment per run, shared by every generator.
	for _, genName := range []string{"halton", "hammersley", "sobol", "uniform"} {
		ys := make([]float64, len(ns))
		for i, nf := range ns {
			vals := make([]float64, 0, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				gen, err := lowdisc.ByName(genName, cfg.Seed+uint64(run))
				if err != nil {
					panic(err)
				}
				pts := gen.Points(int(nf), field)
				m := coverage.New(field, pts, cfg.Rs, 1)
				r := rng.New(cfg.Seed + uint64(run)*1000003)
				for id := 0; id < cfg.InitialSensors; id++ {
					m.AddSensor(id, r.PointInRect(field))
				}
				pointEst := m.CoverageFrac(1)
				latticeEst := percover.LatticeCoverageFrac(m, 1, 200)
				vals = append(vals, 100*math.Abs(pointEst-latticeEst))
			}
			ys[i] = stats.Mean(vals)
		}
		fig.Series = append(fig.Series, Series{Label: genName, X: ns, Y: ys})
	}
	return fig
}

// ExtCellSizeSweep extends Fig. 8/10 beyond the paper's two grid cell
// sizes, exposing the placement-quality vs message-cost trade-off.
func ExtCellSizeSweep(cfg Config) Figure {
	const k = 3
	cells := []float64{4, 5, 8, 10, 20}
	xs := cells
	fig := Figure{
		ID: "ext-cell", Title: "Grid cell-size sweep (k=3)",
		XLabel: "cell size", YLabel: "nodes placed / messages per cell",
	}
	placed := make([]float64, len(cells))
	msgs := make([]float64, len(cells))
	for i, cell := range cells {
		pv := make([]float64, 0, cfg.Runs)
		mv := make([]float64, 0, cfg.Runs)
		for run := 0; run < cfg.Runs; run++ {
			m := cfg.NewMap(k, run)
			res := (core.GridDECOR{CellSize: cell}).Deploy(m, cfg.DeployRNG(run), core.Options{})
			pv = append(pv, float64(res.NumPlaced()))
			mv = append(mv, res.MessagesPerCell())
		}
		placed[i] = stats.Mean(pv)
		msgs[i] = stats.Mean(mv)
	}
	fig.Series = append(fig.Series,
		Series{Label: "nodes-placed", X: xs, Y: placed},
		Series{Label: "messages-per-cell", X: xs, Y: msgs},
	)
	return fig
}

// ExtGeneratorSweep re-runs the Fig. 8 node-count sweep with each point
// generator as the field approximation — the paper's "Hammersley results
// were similar" claim, measured.
func ExtGeneratorSweep(cfg Config) Figure {
	ks := kRange()
	fig := Figure{
		ID: "ext-gen", Title: "Nodes needed vs k, by field-approximation generator (centralized)",
		XLabel: "k", YLabel: "nodes placed for 100% coverage",
	}
	for _, genName := range []string{"halton", "hammersley", "sobol", "faure", "halton-scrambled", "jittered", "lhs", "uniform"} {
		ys := make([]float64, len(ks))
		for i, kf := range ks {
			vals := make([]float64, 0, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				genCfg := cfg
				genCfg.Generator = genName
				genCfg.Seed = cfg.Seed + uint64(run)
				m := genCfg.NewMap(int(kf), run)
				res := (core.Centralized{}).Deploy(m, cfg.DeployRNG(run), core.Options{})
				vals = append(vals, float64(res.NumPlaced()))
			}
			ys[i] = stats.Mean(vals)
		}
		fig.Series = append(fig.Series, Series{Label: genName, X: ks, Y: ys})
	}
	return fig
}

// ExtCorrelatedFailures measures 1-coverage of k=3 deployments under
// geographically correlated cluster failures — the failure mode the
// paper's introduction warns about ("in practice, failures are
// correlated") but §4 only evaluates as a single disaster disc.
func ExtCorrelatedFailures(cfg Config) Figure {
	const k = 3
	xs := []float64{0, 1, 2, 4, 6, 8, 10}
	fig := Figure{
		ID: "ext-corr", Title: "1-coverage under correlated cluster failures (k=3)",
		XLabel: "failure clusters", YLabel: "percentage of covered points",
	}
	radius := cfg.FieldSide / 8
	for _, meth := range cfg.Methods() {
		var runs [][]float64
		for run := 0; run < cfg.Runs; run++ {
			m := cfg.NewMap(k, run)
			meth.Deploy(m, cfg.DeployRNG(run), core.Options{})
			ys := make([]float64, len(xs))
			for i, nc := range xs {
				sum := 0.0
				for d := 0; d < cfg.FailureDraws; d++ {
					model := failure.Correlated{Clusters: int(nc), Radius: radius, P: 0.9}
					ids := model.Select(m, cfg.failRNG(run, d))
					sum += coverageAfterFailure(m, ids, 1)
				}
				ys[i] = 100 * sum / float64(cfg.FailureDraws)
			}
			runs = append(runs, ys)
		}
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: xs, Y: stats.MeanSeries(runs)})
	}
	return fig
}

// ExtConnectivity validates the §2 corollary experimentally: with
// rc = 2·rs, a fully k-covered deployment yields a communication graph
// of vertex connectivity at least k. Runs on a reduced field because
// exact vertex connectivity is expensive.
func ExtConnectivity(cfg Config) Figure {
	small := cfg
	small.FieldSide = math.Min(cfg.FieldSide, 30)
	small.NumPoints = minInt(cfg.NumPoints, 200)
	small.InitialSensors = minInt(cfg.InitialSensors, 20)
	ks := kRange()
	fig := Figure{
		ID: "ext-conn", Title: "Vertex connectivity of k-covered deployments (rc = 2rs)",
		XLabel: "k", YLabel: "vertex connectivity",
	}
	for _, meth := range []core.Method{core.Centralized{}, core.VoronoiDECOR{Rc: 2 * small.Rs}} {
		ys := make([]float64, len(ks))
		for i, kf := range ks {
			vals := make([]float64, 0, small.Runs)
			for run := 0; run < small.Runs; run++ {
				m := small.NewMap(int(kf), run)
				meth.Deploy(m, small.DeployRNG(run), core.Options{})
				net := network.New()
				for _, id := range m.SensorIDs() {
					p, _ := m.SensorPos(id)
					net.Add(id, p, small.Rs, 2*small.Rs)
				}
				vals = append(vals, float64(net.VertexConnectivity()))
			}
			ys[i] = stats.Mean(vals)
		}
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: ks, Y: ys})
	}
	return fig
}

// ExtEnergy reports the total radio energy (millijoules) each DECOR
// variant spends on deployment messages, under the first-order radio
// model the paper cites for leader rotation.
func ExtEnergy(cfg Config) Figure {
	ks := kRange()
	model := energy.Default()
	fig := Figure{
		ID: "ext-energy", Title: "Deployment radio energy by method",
		XLabel: "k", YLabel: "energy (mJ)",
	}
	for _, meth := range cfg.DecorMethods() {
		rc := 2 * cfg.Rs
		if v, ok := meth.(core.VoronoiDECOR); ok {
			rc = v.Rc
		}
		ys := make([]float64, len(ks))
		for i, kf := range ks {
			vals := make([]float64, 0, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				m := cfg.NewMap(int(kf), run)
				res := meth.Deploy(m, cfg.DeployRNG(run), core.Options{})
				_, total := energy.DeploymentCost(m, res, model, rc)
				vals = append(vals, total*1e3)
			}
			ys[i] = stats.Mean(vals)
		}
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: ks, Y: ys})
	}
	return fig
}

// ExtReliability compares the paper's §2.1 analytic survival model
// (1 − q^k per point, exact binomial tails via reliability.Analyze)
// against the deployed fields: expected fraction of 1-covered points
// after i.i.d. failures with probability q, for k=3 deployments.
func ExtReliability(cfg Config) Figure {
	const k = 3
	qs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	fig := Figure{
		ID: "ext-rel", Title: "Analytic expected 1-coverage vs sensor failure probability (k=3)",
		XLabel: "failure probability q", YLabel: "expected percentage of covered points",
	}
	// The idealized model: every point covered exactly k times.
	ideal := make([]float64, len(qs))
	for i, q := range qs {
		ideal[i] = 100 * reliability.PointReliability(k, q)
	}
	fig.Series = append(fig.Series, Series{Label: "ideal-1-q^k", X: qs, Y: ideal})
	for _, meth := range cfg.Methods() {
		var runs [][]float64
		for run := 0; run < cfg.Runs; run++ {
			m := cfg.NewMap(k, run)
			meth.Deploy(m, cfg.DeployRNG(run), core.Options{})
			ys := make([]float64, len(qs))
			for i, q := range qs {
				ys[i] = 100 * reliability.Analyze(m, q).ExpectedCovered
			}
			runs = append(runs, ys)
		}
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: qs, Y: stats.MeanSeries(runs)})
	}
	return fig
}

// ExtHops validates the paper's choice of rc = 10·√2 for the grid
// scheme: at that radius adjacent 5×5-cell leaders are always direct
// neighbors ("without the need of any routing mechanism"), while at
// rc = 2·rs = 8 inter-leader messages may need relaying. The series
// report the mean hop distance between Moore-adjacent occupied-cell
// leaders after a grid-small deployment.
func ExtHops(cfg Config) Figure {
	ks := kRange()
	fig := Figure{
		ID: "ext-hops", Title: "Inter-leader hop distance after grid-small deployment",
		XLabel: "k", YLabel: "mean hops between adjacent-cell leaders",
	}
	cellSize := 5.0
	for _, rc := range []float64{2 * cfg.Rs, cellSize * 2 * math.Sqrt2} {
		label := fmt.Sprintf("rc=%.2f", rc)
		ys := make([]float64, len(ks))
		for i, kf := range ks {
			vals := make([]float64, 0, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				m := cfg.NewMap(int(kf), run)
				(core.GridDECOR{CellSize: cellSize}).Deploy(m, cfg.DeployRNG(run), core.Options{})
				net := network.New()
				part := partitionGrid(m, cellSize)
				leaders := map[int]int{} // cell -> lowest sensor ID
				for _, id := range m.SensorIDs() {
					p, _ := m.SensorPos(id)
					net.Add(id, p, cfg.Rs, rc)
					c := part.CellIndex(p)
					if cur, ok := leaders[c]; !ok || id < cur {
						leaders[c] = id
					}
				}
				var pairs [][2]int
				for c, l := range leaders {
					for _, nc := range part.Neighbors(c) {
						if nl, ok := leaders[nc]; ok && nc > c {
							pairs = append(pairs, [2]int{l, nl})
						}
					}
				}
				if mean, reach := net.AverageHopDistance(pairs); reach > 0 {
					vals = append(vals, mean)
				}
			}
			ys[i] = stats.Mean(vals)
		}
		fig.Series = append(fig.Series, Series{Label: label, X: ks, Y: ys})
	}
	return fig
}

func partitionGrid(m *coverage.Map, cellSize float64) *partition.Grid {
	return partition.NewGrid(m.Field(), cellSize)
}

// ExtByID dispatches the extension experiments.
func ExtByID(id string, cfg Config) (Figure, error) {
	switch id {
	case "ext-area":
		return ExtAreaEstimation(cfg), nil
	case "ext-cell":
		return ExtCellSizeSweep(cfg), nil
	case "ext-gen":
		return ExtGeneratorSweep(cfg), nil
	case "ext-corr":
		return ExtCorrelatedFailures(cfg), nil
	case "ext-conn":
		return ExtConnectivity(cfg), nil
	case "ext-energy":
		return ExtEnergy(cfg), nil
	case "ext-rel":
		return ExtReliability(cfg), nil
	case "ext-hops":
		return ExtHops(cfg), nil
	case "ext-async":
		return ExtAsync(cfg), nil
	case "ext-loc":
		return ExtLocalization(cfg), nil
	case "ext-robot":
		return ExtRobot(cfg), nil
	case "ext-heal":
		return ExtHealing(cfg), nil
	case "ext-relay":
		return ExtRelay(cfg), nil
	}
	return Figure{}, fmt.Errorf("experiment: unknown extension %q", id)
}

// ExtIDs lists the extension experiments.
func ExtIDs() []string {
	return []string{"ext-area", "ext-cell", "ext-gen", "ext-corr", "ext-conn", "ext-energy", "ext-rel", "ext-hops", "ext-async", "ext-loc", "ext-robot", "ext-heal", "ext-relay"}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
