package experiment

import (
	"fmt"

	"decor/internal/core"
	"decor/internal/failure"
	"decor/internal/network"
	"decor/internal/protocol"
	"decor/internal/relay"
	"decor/internal/sim"
	"decor/internal/stats"
)

// ExtHealing measures the autonomous repair loop (§3.2 closed loop):
// after the area disaster, how many heartbeat periods until the
// monitored field detects the silence and fully restores k-coverage,
// for several timeout multipliers. Faster detection risks false
// positives under loss (see internal/protocol tests); this experiment
// shows the latency side of that trade-off.
func ExtHealing(cfg Config) Figure {
	ks := kRange()
	fig := Figure{
		ID: "ext-heal", Title: "Self-healing restoration latency (heartbeat periods)",
		XLabel: "k", YLabel: "Tc periods from failure to full coverage",
	}
	const tc = 10.0
	for _, mult := range []int{2, 3, 6} {
		label := fmt.Sprintf("timeout=%dxTc", mult)
		ys := make([]float64, len(ks))
		for i, kf := range ks {
			vals := make([]float64, 0, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				m := cfg.NewMap(int(kf), run)
				(core.Centralized{}).Deploy(m, cfg.DeployRNG(run), core.Options{})
				eng := sim.NewEngine(0.01)
				mon := protocol.NewMonitoredField(m, eng, 5, tc, mult)
				mon.Start()
				eng.Run(5 * tc)
				dead := (failure.Area{Disk: cfg.AreaFailureDisk()}).Select(m, nil)
				for _, id := range dead {
					mon.Fail(id)
				}
				failAt := eng.Now()
				for step := 0; step < 400; step++ {
					eng.Run(eng.Now() + tc)
					if len(mon.Repairs) > 0 && m.FullyCovered() {
						break
					}
				}
				if len(mon.Repairs) == 0 || !m.FullyCovered() {
					continue // healing incomplete: exclude (should not happen)
				}
				last := mon.Repairs[len(mon.Repairs)-1].Time
				vals = append(vals, float64(last-failAt)/tc)
			}
			ys[i] = stats.Mean(vals)
		}
		fig.Series = append(fig.Series, Series{Label: label, X: ks, Y: ys})
	}
	return fig
}

// ExtRelay measures connectivity repair when rc violates the §2 bound:
// deployments made for coverage but operated at rc = rs (the minimum the
// paper's model allows) can partition into radio islands; the series
// report the component count before repair and the relay nodes needed
// to reconnect, per k.
func ExtRelay(cfg Config) Figure {
	ks := kRange()
	rc := cfg.Rs // the rs <= rc minimum: far below the 2·rs bound
	fig := Figure{
		ID: "ext-relay", Title: "Connectivity repair below the rc >= 2rs bound (rc = rs)",
		XLabel: "k", YLabel: "components before / relays added",
	}
	comps := make([]float64, len(ks))
	relays := make([]float64, len(ks))
	for i, kf := range ks {
		cv := make([]float64, 0, cfg.Runs)
		rv := make([]float64, 0, cfg.Runs)
		for run := 0; run < cfg.Runs; run++ {
			m := cfg.NewMap(int(kf), run)
			(core.VoronoiDECOR{Rc: 2 * cfg.Rs}).Deploy(m, cfg.DeployRNG(run), core.Options{})
			net := network.New()
			for _, id := range m.SensorIDs() {
				p, _ := m.SensorPos(id)
				net.Add(id, p, cfg.Rs, rc)
			}
			before := len(net.ConnectedComponents())
			res := relay.Connect(net, cfg.Rs, rc, 1<<20)
			cv = append(cv, float64(before))
			rv = append(rv, float64(len(res.Relays)))
		}
		comps[i] = stats.Mean(cv)
		relays[i] = stats.Mean(rv)
	}
	fig.Series = append(fig.Series,
		Series{Label: "components-before", X: ks, Y: comps},
		Series{Label: "relays-added", X: ks, Y: relays},
	)
	return fig
}
