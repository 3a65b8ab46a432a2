package experiment

import (
	"decor/internal/core"
	"decor/internal/geom"
	"decor/internal/localize"
	"decor/internal/network"
	"decor/internal/stats"
)

// ExtLocalization measures the DV-hop positioning substrate behind the
// paper's assumption that non-GPS nodes "are capable of finding out ...
// their respective positions using an algorithm": mean localization
// error (in units of rc) as a function of the number of GPS anchors, on
// a deployed DECOR field.
func ExtLocalization(cfg Config) Figure {
	anchorCounts := []float64{3, 4, 6, 8, 12, 16}
	fig := Figure{
		ID: "ext-loc", Title: "DV-hop localization error vs GPS anchors (k=3 deployment)",
		XLabel: "anchors", YLabel: "mean position error / rc",
	}
	for _, rc := range []float64{2 * cfg.Rs, 14.142135623730951} {
		label := "rc=8.00"
		if rc > 10 {
			label = "rc=14.14"
		}
		ys := make([]float64, len(anchorCounts))
		for i, ac := range anchorCounts {
			vals := make([]float64, 0, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				m := cfg.NewMap(3, run)
				(core.VoronoiDECOR{Rc: rc}).Deploy(m, cfg.DeployRNG(run), core.Options{})
				net := network.New()
				ids := m.SensorIDs()
				for _, id := range ids {
					p, _ := m.SensorPos(id)
					net.Add(id, p, cfg.Rs, rc)
				}
				anchors := spreadAnchors(m.Field(), net, ids, int(ac))
				res, err := localize.DVHop(net, anchors)
				if err != nil {
					continue
				}
				_, perRc := localize.EvaluateAccuracy(net, &res)
				if len(res.Estimates) > 0 {
					vals = append(vals, perRc)
				}
			}
			ys[i] = stats.Mean(vals)
		}
		fig.Series = append(fig.Series, Series{Label: label, X: anchorCounts, Y: ys})
	}
	return fig
}

// spreadAnchors picks n sensors nearest to a jittered grid of target
// positions, giving well-spread anchor geometry.
func spreadAnchors(field geom.Rect, net *network.Network, ids []int, n int) []int {
	cols := 1
	for cols*cols < n {
		cols++
	}
	var anchors []int
	taken := map[int]bool{}
	for i := 0; i < n; i++ {
		cx := i % cols
		cy := i / cols
		target := geom.Point{
			X: field.Min.X + (float64(cx)+0.5)/float64(cols)*field.W(),
			Y: field.Min.Y + (float64(cy)+0.5)/float64(cols)*field.H(),
		}
		best, bestD := -1, 0.0
		for _, id := range ids {
			if taken[id] {
				continue
			}
			d := net.Node(id).Pos.Dist2(target)
			if best < 0 || d < bestD {
				best, bestD = id, d
			}
		}
		if best >= 0 {
			taken[best] = true
			anchors = append(anchors, best)
		}
	}
	return anchors
}
