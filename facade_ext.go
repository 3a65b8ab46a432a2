package decor

import (
	"errors"
	"io"

	"decor/internal/energy"
	"decor/internal/geom"
	"decor/internal/network"
	"decor/internal/percover"
	"decor/internal/relay"
	"decor/internal/reliability"
	"decor/internal/render"
	"decor/internal/rng"
	"decor/internal/schedule"
)

// This file extends the public facade beyond the paper's core loop:
// exact coverage verification (via the perimeter method of the paper's
// reference [8]), the reliability calculus from the abstract/§2.1, and
// raster rendering.

// KForReliability translates a user reliability requirement into the
// coverage degree k (the paper's abstract: "k is calculated based on
// user reliability requirements"): the smallest k such that a point
// covered by k sensors, each failing independently with probability q,
// stays covered with probability at least target.
func KForReliability(q, target float64) (int, error) {
	return reliability.KForTarget(q, target)
}

// VerifyExact decides k-coverage analytically — independent of the
// sample-point approximation — using perimeter coverage. When the field
// is not fully K-covered it returns a concrete under-covered witness
// point. This is the ground-truth check for the discrepancy-point
// method.
func (d *Deployment) VerifyExact() (covered bool, witness Point) {
	res := percover.Verify(d.m, d.params.K)
	return res.Covered, Point(res.Witness)
}

// ReliabilityReport summarizes a deployment's failure resilience under
// i.i.d. sensor failures with probability Q (paper §2.1).
type ReliabilityReport struct {
	Q float64
	// MinPointReliability is the survival probability of the worst
	// sample point (1 − q^{k_p} with the smallest k_p).
	MinPointReliability float64
	// ExpectedCovered is the expected fraction of points still covered
	// by at least one sensor after failures.
	ExpectedCovered float64
	// ExpectedKCovered is the expected fraction still at the full
	// requirement K.
	ExpectedKCovered float64
}

// Reliability computes the exact (closed-form, no sampling) reliability
// report for the current deployment.
func (d *Deployment) Reliability(q float64) ReliabilityReport {
	rep := reliability.Analyze(d.m, q)
	return ReliabilityReport{
		Q:                   q,
		MinPointReliability: rep.PointReliability.Min,
		ExpectedCovered:     rep.ExpectedCovered,
		ExpectedKCovered:    rep.ExpectedKCovered,
	}
}

// SleepSchedule extracts disjoint 1-covering sensor shifts from the
// current deployment (the paper's §1 energy story): rotating the shifts
// keeps the field monitored while all other sensors sleep. Each shift is
// a sorted slice of sensor IDs; more coverage degree yields more shifts.
func (d *Deployment) SleepSchedule() [][]int {
	plan := schedule.Build(d.m)
	out := make([][]int, len(plan.Covers))
	for i, c := range plan.Covers {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// EstimateLifetime returns the monitored lifetime, in rotation epochs of
// epochSec seconds, that the sleep schedule achieves with batteryJoules
// per node under the default first-order radio model.
func (d *Deployment) EstimateLifetime(epochSec, batteryJoules float64) int {
	plan := schedule.Build(d.m)
	return schedule.Lifetime(plan, energy.Default(), batteryJoules, epochSec, d.params.Rc, 2)
}

// SetK retunes the coverage requirement of a live deployment — the
// paper's §3: "the value of the parameter k can be tuned dynamically to
// achieve the desired level of coverage required by the user". Raising
// K exposes deficits (restore with Deploy); lowering it frees surplus
// sensors (harvest with Redundant or SleepSchedule). K must be >= 1.
func (d *Deployment) SetK(k int) error {
	if k < 1 {
		return errInvalidK
	}
	d.params.K = k
	d.m.SetK(k)
	return nil
}

var errInvalidK = errors.New("decor: K must be at least 1")

// ConnectRelays checks communication connectivity under the
// deployment's Rc and, if the network is partitioned (possible whenever
// Rc < 2·Rs — outside the §2 corollary), adds relay sensors along the
// gaps until it is connected. It returns the relay positions added (nil
// when already connected). Relays participate in coverage like any
// other sensor.
func (d *Deployment) ConnectRelays() []Point {
	net := network.New()
	for _, s := range d.Sensors() {
		net.Add(s.ID, geom.Point(s.Pos), d.params.Rs, d.params.Rc)
	}
	res := relay.Connect(net, d.params.Rs, d.params.Rc, nextID(d.m))
	out := make([]Point, 0, len(res.Relays))
	for _, p := range res.Relays {
		d.m.AddSensor(nextID(d.m), p)
		out = append(out, Point(p))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Reseed replaces the deployment's random stream. Deployments built from
// equal Params replay identically; reseeding clones lets callers draw
// independent failure scenarios over the same deployed field.
func (d *Deployment) Reseed(seed uint64) { d.r = rng.New(seed) }

// WritePNG renders the field as a PNG coverage heatmap with sensors.
func (d *Deployment) WritePNG(w io.Writer) error {
	return render.PNG(w, d.m, render.PNGOptions{
		Heatmap:     true,
		ShowSensors: true,
	})
}
