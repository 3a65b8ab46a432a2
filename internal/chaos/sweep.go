package chaos

import (
	"bytes"
	"encoding/json"

	"decor/internal/shard"
)

// This file shards chaos scenarios across the repo-wide worker pool of
// GOMAXPROCS goroutines. Every Run builds its own world, engine, RNG
// streams, and invariant checker, so scenarios are independent by
// construction. Engines share the process registry's counters without
// contending on them: each engine batches its counter deltas
// (sim.Engine.flushObs). Results land in per-scenario slots and are read
// back in input order, so a sweep's output — every Verdict, trace hash,
// and replay bit — is byte-identical for any GOMAXPROCS, including 1
// (TestSweepParallelIdentical locks this in).

// SweepResult is the outcome of one sweep cell.
type SweepResult struct {
	Verdict  Verdict
	ReplayOK bool // the replay's verdict was byte-identical
}

// Sweep runs every scenario twice across the worker pool and returns
// results in input order. ReplayOK reports whether the two verdicts
// were byte-identical — the determinism double-run `decor-chaos` and
// `make chaos-smoke` gate on.
func Sweep(scs []Scenario) []SweepResult {
	out := make([]SweepResult, len(scs))
	shard.ForEach(len(scs), func(i int) {
		v := Run(scs[i])
		j1, _ := json.Marshal(v)
		j2, _ := json.Marshal(Run(scs[i]))
		out[i] = SweepResult{Verdict: v, ReplayOK: bytes.Equal(j1, j2)}
	})
	return out
}
