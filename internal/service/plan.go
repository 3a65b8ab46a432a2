package service

import (
	"context"
	"fmt"
	"net/http"

	"decor"
)

// PlanResponse is the body both endpoints return: the decor.Report plus
// the resulting coverage state. Identical normalized requests always
// produce identical responses (same seed → same RNG stream → same
// placements), which is what makes the byte cache sound.
type PlanResponse struct {
	Method          string  `json:"method"`
	K               int     `json:"k"`
	Placed          int     `json:"placed"`
	TotalSensors    int     `json:"total_sensors"`
	Messages        int     `json:"messages"`
	MessagesPerCell float64 `json:"messages_per_cell"`
	Rounds          int     `json:"rounds"`
	Seeded          int     `json:"seeded"`
	// Failed counts the sensors a /v1/repair request destroyed before
	// planning (always 0 for /v1/plan).
	Failed int `json:"failed,omitempty"`
	// Placements lists the new sensors in placement order — the route
	// input for whoever actuates the deployment.
	Placements []PointSpec `json:"placements"`
	CoverageK  float64     `json:"coverage_k"`
	Coverage1  float64     `json:"coverage_1"`
	Covered    bool        `json:"fully_covered"`
}

// buildDeployment constructs the request's field and pre-deployed
// network. Validation has already bounded every size, so construction
// errors are server bugs, not client input.
func buildDeployment(pr PlanRequest) (*decor.Deployment, error) {
	d, err := decor.NewDeployment(decor.Params{
		FieldSide: pr.FieldSide,
		K:         pr.K,
		Rs:        pr.Rs,
		Rc:        pr.Rc,
		NumPoints: pr.NumPoints,
		Generator: pr.Generator,
		Seed:      pr.Seed,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range pr.Sensors {
		if err := d.AddSensorID(*s.ID, decor.Point{X: s.X, Y: s.Y}); err != nil {
			return nil, err
		}
	}
	if pr.Scatter > 0 {
		d.ScatterRandom(pr.Scatter)
	}
	return d, nil
}

// respond encodes a completed plan into its canonical byte form through
// the append codec (byte-identical to json.Marshal — the parity the
// codec tests pin). One encode produces the bytes both delivery paths
// (the miss that planned them and every cache hit) serve verbatim; the
// slice is freshly sized, never pooled, because the cache retains it.
func respond(pr PlanRequest, rep decor.Report, d *decor.Deployment, failed int) ([]byte, error) {
	placements := make([]PointSpec, len(rep.Placements))
	for i, p := range rep.Placements {
		placements[i] = PointSpec{X: p.X, Y: p.Y}
	}
	resp := PlanResponse{
		Method:          rep.Method,
		K:               pr.K,
		Placed:          rep.Placed,
		TotalSensors:    rep.TotalSensors,
		Messages:        rep.Messages,
		MessagesPerCell: rep.MessagesPerCell,
		Rounds:          rep.Rounds,
		Seeded:          rep.Seeded,
		Failed:          failed,
		Placements:      placements,
		CoverageK:       d.Coverage(pr.K),
		Coverage1:       d.Coverage(1),
		Covered:         d.FullyCovered(),
	}
	body := make([]byte, 0, 256+32*len(placements))
	body, err := appendPlanResponse(body, &resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// executePlan runs one /v1/plan request to completion (or ctx expiry) on
// a private Deployment and returns the canonical response bytes.
func executePlan(ctx context.Context, pr PlanRequest) ([]byte, error) {
	d, err := buildDeployment(pr)
	if err != nil {
		return nil, fmt.Errorf("building deployment: %w", err)
	}
	rep, err := d.DeployContext(ctx, pr.Method)
	if err != nil {
		return nil, err
	}
	return respond(pr, rep, d, 0)
}

// executeRepair runs one /v1/repair request: reconstruct the deployment,
// destroy the failed sensors, restore coverage.
func executeRepair(ctx context.Context, rr RepairRequest) ([]byte, error) {
	d, err := buildDeployment(rr.PlanRequest)
	if err != nil {
		return nil, fmt.Errorf("building deployment: %w", err)
	}
	if err := d.FailSensors(rr.Failed...); err != nil {
		// Validation checked the references against the canonical ID
		// space; a miss here means that space and the facade disagree.
		return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	rep, err := d.DeployContext(ctx, rr.Method)
	if err != nil {
		return nil, err
	}
	return respond(rr.PlanRequest, rep, d, len(rr.Failed))
}
