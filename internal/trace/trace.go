// Package trace serializes deployment runs as JSON Lines so external
// tooling (plotting, regression diffing, replay) can consume them. A
// trace is self-contained: a header record with the field parameters,
// one record per placement in order, and a footer with the run metrics.
package trace

import (
	"bufio"
	"encoding/json"
	"io"

	"decor/internal/core"
	"decor/internal/coverage"

	"decor/internal/metrics"
	"decor/internal/obs"
)

// Record kinds.
const (
	KindHeader    = "header"
	KindPlacement = "placement"
	KindFooter    = "footer"
	// KindObs records an instrumentation snapshot (counters, gauges,
	// phase-latency histograms — see internal/obs). Obs records may appear
	// anywhere after the header, including after the footer, so a run can
	// append its final metrics once the deployment record is complete.
	// Traces written before this record kind existed parse unchanged, and
	// non-obs data after the footer is still left unconsumed (stream
	// reuse), exactly as before.
	KindObs = "obs"
)

// Header describes the run configuration.
type Header struct {
	Kind      string  `json:"kind"`
	Method    string  `json:"method"`
	K         int     `json:"k"`
	Rs        float64 `json:"rs"`
	FieldW    float64 `json:"field_w"`
	FieldH    float64 `json:"field_h"`
	NumPoints int     `json:"num_points"`
	Initial   int     `json:"initial_sensors"`
}

// PlacementRec is one deployed sensor.
type PlacementRec struct {
	Kind  string  `json:"kind"`
	Seq   int     `json:"seq"`
	ID    int     `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Round int     `json:"round"`
}

// Footer carries the run's final metrics.
type Footer struct {
	Kind            string  `json:"kind"`
	Placed          int     `json:"placed"`
	TotalNodes      int     `json:"total_nodes"`
	RedundantNodes  int     `json:"redundant_nodes"`
	Messages        int     `json:"messages"`
	MessagesPerCell float64 `json:"messages_per_cell"`
	Rounds          int     `json:"rounds"`
	Seeded          int     `json:"seeded"`
	CoverageK       float64 `json:"coverage_k"`
}

// ObsRec carries one instrumentation snapshot captured during or after
// the run.
type ObsRec struct {
	Kind string       `json:"kind"`
	Obs  obs.Snapshot `json:"obs"`
}

// Write serializes a finished run. The map must be in its post-run
// state (Collect reads coverage and redundancy from it).
func Write(w io.Writer, m *coverage.Map, res core.Result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	dep := metrics.Collect(m, res)
	head := Header{
		Kind: KindHeader, Method: res.Method, K: m.K(), Rs: m.Rs(),
		FieldW: m.Field().W(), FieldH: m.Field().H(),
		NumPoints: m.NumPoints(),
		Initial:   m.NumSensors() - res.NumPlaced(),
	}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for i, pl := range res.Placed {
		rec := PlacementRec{Kind: KindPlacement, Seq: i, ID: pl.ID, X: pl.Pos.X, Y: pl.Pos.Y, Round: pl.Round}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	foot := Footer{
		Kind: KindFooter, Placed: dep.PlacedNodes, TotalNodes: dep.TotalNodes,
		RedundantNodes: dep.RedundantNodes, Messages: dep.Messages,
		MessagesPerCell: dep.MessagesPerCell, Rounds: dep.Rounds,
		Seeded: dep.Seeded, CoverageK: dep.CoverageK,
	}
	if err := enc.Encode(foot); err != nil {
		return err
	}
	return bw.Flush()
}

// AppendObs appends an instrumentation-snapshot record to a trace stream.
// Call it after Write (or between placements, for per-phase snapshots)
// with the same writer.
func AppendObs(w io.Writer, snap obs.Snapshot) error {
	return json.NewEncoder(w).Encode(ObsRec{Kind: KindObs, Obs: snap})
}
