package experiment

import (
	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/failure"
	"decor/internal/geom"
	"decor/internal/rng"
	"decor/internal/stats"
)

// kRange returns the paper's x axis for the k sweeps.
func kRange() []float64 { return []float64{1, 2, 3, 4, 5} }

// Fig7 reproduces "Coverage achieved with different number of sensors,
// for k = 3": the percentage of 3-covered points as the node count grows,
// for all six methods.
func Fig7(cfg Config) Figure {
	const k = 3
	// The paper's x axis runs to 3500 nodes on the 100×100 field; scale
	// by area for reduced configs.
	xmax := 3500 * cfg.FieldSide * cfg.FieldSide / 10000.0
	xs := stats.Linspace(0, xmax, 15)
	fig := Figure{
		ID: "fig7", Title: "Coverage achieved with different number of sensors, k=3",
		XLabel: "nodes", YLabel: "percentage of covered area",
	}
	methods := cfg.Methods()
	runs := make([][][]float64, len(methods)) // [method][run] -> series
	for mi := range runs {
		runs[mi] = make([][]float64, cfg.Runs)
	}
	forEachCell(len(methods)*cfg.Runs, func(cell int) {
		mi, run := cell/cfg.Runs, cell%cfg.Runs
		m := cfg.NewMap(k, run)
		res := methods[mi].Deploy(m, cfg.DeployRNG(run), core.Options{MaxPlacements: int(xmax)})
		// Replay the placement order on a fresh field, sampling the
		// k-coverage fraction after each number of added nodes (the
		// x axis counts nodes the algorithm deploys, matching Fig. 8's
		// restoration accounting; the pre-deployed network contributes
		// the small nonzero coverage at x = 0).
		replay := cfg.NewMap(k, run)
		ys := make([]float64, len(xs))
		next := 0
		for i, x := range xs {
			for next < int(x) && next < len(res.Placed) {
				pl := res.Placed[next]
				replay.AddSensor(pl.ID, pl.Pos)
				next++
			}
			ys[i] = 100 * replay.CoverageFrac(k)
		}
		runs[mi][run] = ys
	})
	for mi, meth := range methods {
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: xs, Y: stats.MeanSeries(runs[mi])})
	}
	return fig
}

// Fig8 reproduces "Number of nodes needed for k-coverage of the area vs.
// k": the sensors each method deploys to reach 100% k-coverage. Counting
// deployed (not field-total) nodes matches the paper's reference values —
// 788 (centralized), ~891 (Voronoi) and 1196 (grid 5×5) at k = 4 — and
// its framing of the problem as *restoration* of a partially covered
// field.
func Fig8(cfg Config) Figure {
	fig := Figure{
		ID: "fig8", Title: "Number of nodes needed for 100% k-coverage vs. k",
		XLabel: "k", YLabel: "nodes needed for 100% coverage",
	}
	forEachMethodK(cfg, cfg.Methods(), &fig, func(m *coverage.Map, res core.Result) float64 {
		return float64(res.NumPlaced())
	})
	return fig
}

// Fig9 reproduces "Percentage of redundant nodes vs. k".
func Fig9(cfg Config) Figure {
	fig := Figure{
		ID: "fig9", Title: "Percentage of redundant nodes vs. k",
		XLabel: "k", YLabel: "percentage of redundant nodes",
	}
	forEachMethodK(cfg, cfg.Methods(), &fig, func(m *coverage.Map, res core.Result) float64 {
		if m.NumSensors() == 0 {
			return 0
		}
		return 100 * float64(len(m.RedundantSensors())) / float64(m.NumSensors())
	})
	return fig
}

// Fig10 reproduces "Message overhead of DECOR": messages per cell vs. k
// for the four distributed variants (the baselines send none).
func Fig10(cfg Config) Figure {
	fig := Figure{
		ID: "fig10", Title: "Message overhead of DECOR",
		XLabel: "k", YLabel: "number of messages / cell",
	}
	forEachMethodK(cfg, cfg.DecorMethods(), &fig, func(m *coverage.Map, res core.Result) float64 {
		return res.MessagesPerCell()
	})
	return fig
}

// forEachMethodK runs every method over k = 1..5 × cfg.Runs fields and
// aggregates measure() into one series per method. The (method, k, run)
// cells fan out across the worker pool; measure must be safe to call from
// any goroutine on the cell's own map.
func forEachMethodK(cfg Config, methods []core.Method, fig *Figure, measure func(*coverage.Map, core.Result) float64) {
	ks := kRange()
	perK := len(ks) * cfg.Runs
	vals := make([]float64, len(methods)*perK) // [method][k][run] flattened
	forEachCell(len(vals), func(cell int) {
		mi, rem := cell/perK, cell%perK
		ki, run := rem/cfg.Runs, rem%cfg.Runs
		m := cfg.NewMap(int(ks[ki]), run)
		res := methods[mi].Deploy(m, cfg.DeployRNG(run), core.Options{})
		vals[cell] = measure(m, res)
	})
	for mi, meth := range methods {
		ys := make([]float64, len(ks))
		errs := make([]float64, len(ks))
		for i := range ks {
			row := vals[mi*perK+i*cfg.Runs : mi*perK+(i+1)*cfg.Runs]
			sum := stats.Summarize(row)
			ys[i] = sum.Mean
			errs[i] = sum.Std
		}
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: ks, Y: ys, Err: errs})
	}
}

// Fig11 reproduces "3-coverage under random failures": deployments built
// for k = 3, then a random fraction of all nodes fails; y is the
// percentage of points still covered by at least one sensor.
func Fig11(cfg Config) Figure {
	const k = 3
	xs := stats.Linspace(0, 30, 7) // 0%..30% failed, the paper's axis
	fig := Figure{
		ID: "fig11", Title: "3-coverage under random failures",
		XLabel: "percentage of nodes failed", YLabel: "percentage of covered points",
	}
	methods := cfg.Methods()
	runs := make([][][]float64, len(methods)) // [method][run] -> series
	for mi := range runs {
		runs[mi] = make([][]float64, cfg.Runs)
	}
	forEachCell(len(methods)*cfg.Runs, func(cell int) {
		mi, run := cell/cfg.Runs, cell%cfg.Runs
		m := cfg.NewMap(k, run)
		methods[mi].Deploy(m, cfg.DeployRNG(run), core.Options{})
		eval := newFailureEval(m)
		ys := make([]float64, len(xs))
		for i, pct := range xs {
			sum := 0.0
			for d := 0; d < cfg.FailureDraws; d++ {
				r := cfg.failRNG(run, d)
				ids := (failure.Random{Fraction: pct / 100}).Select(m, r)
				sum += eval.after(ids, 1)
			}
			ys[i] = 100 * sum / float64(cfg.FailureDraws)
		}
		runs[mi][run] = ys
	})
	for mi, meth := range methods {
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: xs, Y: stats.MeanSeries(runs[mi])})
	}
	return fig
}

// Fig12 reproduces "Maximum allowed failures for 1-coverage of 90% of the
// area": the largest random-failure percentage each k-deployment
// tolerates while at least 90% of the points remain 1-covered.
func Fig12(cfg Config) Figure {
	ks := kRange()
	fig := Figure{
		ID: "fig12", Title: "Maximum allowed failures for 1-coverage of 90% of the area",
		XLabel: "k", YLabel: "maximum percentage of failed nodes",
	}
	methods := cfg.Methods()
	perK := len(ks) * cfg.Runs
	vals := make([]float64, len(methods)*perK) // [method][k][run] flattened
	forEachCell(len(vals), func(cell int) {
		mi, rem := cell/perK, cell%perK
		ki, run := rem/cfg.Runs, rem%cfg.Runs
		m := cfg.NewMap(int(ks[ki]), run)
		methods[mi].Deploy(m, cfg.DeployRNG(run), core.Options{})
		eval := newFailureEval(m)
		tolerated := stats.MaxTrueFraction(1, 0.005, func(f float64) bool {
			sum := 0.0
			for d := 0; d < cfg.FailureDraws; d++ {
				r := cfg.failRNG(run, d)
				ids := (failure.Random{Fraction: f}).Select(m, r)
				sum += eval.after(ids, 1)
			}
			return sum/float64(cfg.FailureDraws) >= 0.9
		})
		vals[cell] = 100 * tolerated
	})
	for mi, meth := range methods {
		ys := make([]float64, len(ks))
		for i := range ks {
			ys[i] = stats.Mean(vals[mi*perK+i*cfg.Runs : mi*perK+(i+1)*cfg.Runs])
		}
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: ks, Y: ys})
	}
	return fig
}

// AreaFailureDisk returns the disaster disc used by Figs. 6, 13 and 14:
// radius cfg.AreaFailureRadius centered on the field (≈17% of the area at
// the paper's parameters).
func (c Config) AreaFailureDisk() geom.Disk {
	return geom.Disk{Center: c.Field().Center(), R: c.AreaFailureRadius}
}

// Fig13 reproduces "k-covered points after an area failure": the
// percentage of points still k-covered immediately after the disaster,
// before restoration. The paper notes it is essentially method-
// independent.
func Fig13(cfg Config) Figure {
	fig := Figure{
		ID: "fig13", Title: "k-covered points after an area failure",
		XLabel: "k", YLabel: "percentage of k-covered points",
	}
	forEachMethodK(cfg, cfg.Methods(), &fig, func(m *coverage.Map, res core.Result) float64 {
		ids := (failure.Area{Disk: cfg.AreaFailureDisk()}).Select(m, nil)
		return 100 * coverageAfterFailure(m, ids, m.K())
	})
	return fig
}

// Fig14 reproduces "Number of nodes required to recover coverage of a
// failure area": after the area disaster, each method restores
// k-coverage; y is the number of extra nodes it deploys.
func Fig14(cfg Config) Figure {
	ks := kRange()
	fig := Figure{
		ID: "fig14", Title: "Nodes required to recover coverage of a failure area",
		XLabel: "k", YLabel: "extra nodes needed",
	}
	methods := cfg.Methods()
	perK := len(ks) * cfg.Runs
	vals := make([]float64, len(methods)*perK) // [method][k][run] flattened
	forEachCell(len(vals), func(cell int) {
		mi, rem := cell/perK, cell%perK
		ki, run := rem/cfg.Runs, rem%cfg.Runs
		m := cfg.NewMap(int(ks[ki]), run)
		methods[mi].Deploy(m, cfg.DeployRNG(run), core.Options{})
		ids := (failure.Area{Disk: cfg.AreaFailureDisk()}).Select(m, nil)
		failure.Apply(m, ids)
		res := methods[mi].Deploy(m, cfg.restoreRNG(run), core.Options{})
		vals[cell] = float64(res.NumPlaced())
	})
	for mi, meth := range methods {
		ys := make([]float64, len(ks))
		for i := range ks {
			ys[i] = stats.Mean(vals[mi*perK+i*cfg.Runs : mi*perK+(i+1)*cfg.Runs])
		}
		fig.Series = append(fig.Series, Series{Label: meth.Name(), X: ks, Y: ys})
	}
	return fig
}

func (c Config) failRNG(run, draw int) *rng.RNG {
	return rng.New(c.Seed + uint64(run)*333667 + uint64(draw)*101 + 29)
}

func (c Config) restoreRNG(run int) *rng.RNG {
	return rng.New(c.Seed + uint64(run)*555557 + 31)
}
