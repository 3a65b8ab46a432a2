package experiment

import (
	"decor/internal/core"
	"decor/internal/metrics"
)

// Deployments runs each of the paper's six methods once at coverage
// requirement k on the run-0 field and returns their measured summaries —
// the machine-readable per-deployment form behind decor-bench
// -deployments/-json, complementing the averaged figure tables.
func Deployments(cfg Config, k int) []metrics.Deployment {
	methods := cfg.Methods()
	out := make([]metrics.Deployment, len(methods))
	forEachCell(len(methods), func(i int) {
		m := cfg.NewMap(k, 0)
		res := methods[i].Deploy(m, cfg.DeployRNG(0), core.Options{})
		out[i] = metrics.Collect(m, res)
	})
	return out
}
