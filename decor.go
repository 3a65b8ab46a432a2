// Package decor is the public API of the DECOR reproduction: dependable
// k-coverage restoration for wireless sensor networks using
// low-discrepancy field approximation and distributed greedy placement
// (Drougas & Kalogeraki, IPPS 2007).
//
// A Deployment owns a rectangular field approximated by a
// low-discrepancy point set and a set of sensors with sensing radius Rs
// and communication radius Rc. Sensors can be pre-placed (AddSensor),
// destroyed (FailRandom / FailArea), and the field restored to full
// k-coverage with any of the paper's algorithms (Deploy):
//
//	d, _ := decor.NewDeployment(decor.Params{
//		FieldSide: 100, K: 3, Rs: 4, NumPoints: 2000, Seed: 1,
//	})
//	d.ScatterRandom(200)                 // the paper's initial network
//	rep, _ := d.Deploy("voronoi-big")    // restore 3-coverage
//	fmt.Println(rep.Placed, d.Coverage(3))
//
// The internal packages expose the full substrate (geometry, Halton /
// Hammersley generators, discrete-event protocol simulation, experiment
// harness); this package is the stable surface downstream users need.
package decor

import (
	"context"
	"errors"
	"fmt"
	"math"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/experiment"
	"decor/internal/failure"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/network"
	"decor/internal/render"
	"decor/internal/rng"
)

// Point is a location in the field.
type Point struct {
	X, Y float64
}

// Sensor is one deployed device.
type Sensor struct {
	ID  int
	Pos Point
}

// Params configures a Deployment. The zero value is invalid; the paper's
// setup is FieldSide 100, K per experiment, Rs 4, Rc 8 or 14.14,
// NumPoints 2000, Generator "halton".
type Params struct {
	// FieldSide is the edge length of the square monitored area.
	FieldSide float64
	// K is the reliability requirement: every point must be covered by
	// at least K sensors.
	K int
	// Rs is the sensing radius; Rc the communication radius (defaults to
	// 2·Rs, the connectivity-preserving minimum from §2).
	Rs, Rc float64
	// NumPoints is the size of the low-discrepancy field approximation.
	NumPoints int
	// Generator selects the point set: halton (default), hammersley,
	// sobol, uniform, jittered, lhs.
	Generator string
	// Seed drives all randomness (random scatter, random placement,
	// failures). Equal seeds give identical behavior.
	Seed uint64
}

func (p Params) normalize() (Params, error) {
	if !positiveFinite(p.FieldSide) {
		return p, errors.New("decor: FieldSide must be positive and finite")
	}
	if p.K < 1 {
		return p, errors.New("decor: K must be at least 1")
	}
	if !positiveFinite(p.Rs) {
		return p, errors.New("decor: Rs must be positive and finite")
	}
	if p.Rc == 0 {
		p.Rc = 2 * p.Rs
	}
	if !positiveFinite(p.Rc) {
		return p, errors.New("decor: Rc must be positive and finite")
	}
	if p.Rc < p.Rs {
		return p, errors.New("decor: Rc must be at least Rs (paper §2)")
	}
	if p.NumPoints < 1 {
		return p, errors.New("decor: NumPoints must be positive")
	}
	if p.Generator == "" {
		p.Generator = "halton"
	}
	return p, nil
}

// positiveFinite reports whether x is a usable length: NaN fails x > 0.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Deployment is a live field: sample points, sensors and coverage state.
//
// # Concurrency contract
//
// A Deployment is not safe for concurrent use: every method — including
// apparent reads like Coverage and Sensors — may touch shared mutable
// state (coverage counts, spatial indexes, the RNG stream) without
// synchronization. Callers serialize access in one of two ways. Each
// goroutine can own a private Deployment: one built from equal Params,
// which behaves identically, or a Clone; the decor-serve request path
// clones for every request (DESIGN.md §9). Or a lock guards a shared
// Deployment, as each field session's lock does (DESIGN.md §14).
type Deployment struct {
	params Params
	m      *coverage.Map
	r      *rng.RNG
}

// NewDeployment validates params and builds an empty field. Its sample
// points, their index and adjacencies come from the process-wide
// registry (coverage.SharedPointSet), so deployments over the same
// points and Rs build them once; the counts and sensors are private.
func NewDeployment(params Params) (*Deployment, error) {
	p, err := params.normalize()
	if err != nil {
		return nil, err
	}
	gen, err := lowdisc.ByName(p.Generator, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("decor: %w", err)
	}
	ps := coverage.SharedPointSet(gen, p.NumPoints, geom.Square(p.FieldSide), p.Rs)
	return &Deployment{
		params: p,
		m:      coverage.NewMap(ps, p.K),
		r:      rng.New(p.Seed),
	}, nil
}

// Params returns the normalized parameters.
func (d *Deployment) Params() Params { return d.params }

// AddSensor places a sensor at pos and returns its ID.
func (d *Deployment) AddSensor(pos Point) int {
	id := nextID(d.m)
	d.m.AddSensor(id, geom.Point(pos))
	return id
}

// AddSensorID places a sensor with a caller-chosen ID — the entry point
// for reconstructing an existing deployment (the decor-serve /v1/repair
// path, where failed-sensor references must use the caller's IDs). It
// rejects negative and duplicate IDs.
func (d *Deployment) AddSensorID(id int, pos Point) error {
	if id < 0 {
		return fmt.Errorf("decor: sensor id %d must be non-negative", id)
	}
	if _, ok := d.m.SensorPos(id); ok {
		return fmt.Errorf("decor: duplicate sensor id %d", id)
	}
	d.m.AddSensor(id, geom.Point(pos))
	return nil
}

// FailSensors destroys exactly the identified sensors — the
// deterministic counterpart of FailRandom/FailArea for callers that know
// which devices died (a monitoring report, a /v1/repair request). It is
// atomic: if any ID is unknown or repeated, nothing is destroyed.
func (d *Deployment) FailSensors(ids ...int) error {
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if _, ok := d.m.SensorPos(id); !ok {
			return fmt.Errorf("decor: unknown sensor id %d", id)
		}
		if seen[id] {
			return fmt.Errorf("decor: duplicate sensor id %d", id)
		}
		seen[id] = true
	}
	failure.Apply(d.m, ids)
	return nil
}

// ScatterRandom uniformly scatters n sensors (the paper's initial
// network of "up to 200 sensor nodes") and returns their IDs.
func (d *Deployment) ScatterRandom(n int) []int {
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, d.AddSensor(Point(d.r.PointInRect(d.m.Field()))))
	}
	return ids
}

// Sensors lists all deployed sensors in ascending ID order.
func (d *Deployment) Sensors() []Sensor {
	ids := d.m.SensorIDs()
	out := make([]Sensor, len(ids))
	for i, id := range ids {
		p, _ := d.m.SensorPos(id)
		out[i] = Sensor{ID: id, Pos: Point(p)}
	}
	return out
}

// NumSensors returns the number of deployed sensors.
func (d *Deployment) NumSensors() int { return d.m.NumSensors() }

// Coverage returns the fraction (0..1) of sample points covered by at
// least level sensors; Coverage(params.K) is the headline metric.
func (d *Deployment) Coverage(level int) float64 { return d.m.CoverageFrac(level) }

// FullyCovered reports whether every sample point is K-covered.
func (d *Deployment) FullyCovered() bool { return d.m.FullyCovered() }

// Redundant returns the IDs of sensors removable without losing
// K-coverage (the paper's waste metric, Fig. 9).
func (d *Deployment) Redundant() []int { return d.m.RedundantSensors() }

// Report summarizes a Deploy run.
type Report struct {
	Method          string
	Placed          int     // sensors added by this run
	TotalSensors    int     // field total afterwards
	Messages        int     // protocol messages sent (distributed methods)
	MessagesPerCell float64 // the paper's Fig. 10 metric
	Rounds          int     // synchronized rounds executed
	Seeded          int     // base-station interventions for unreachable regions
	// Placements lists the new sensors' positions in placement order —
	// the route input for whoever (human or mobile robot, per the
	// paper's §1) actuates the deployment.
	Placements []Point
}

// Deploy restores full K-coverage using the named method: one of
// centralized, random, grid-small, grid-big, voronoi-small, voronoi-big
// (see MethodNames). Deploy on an already-covered field is a no-op.
func (d *Deployment) Deploy(method string) (Report, error) {
	return d.DeployContext(context.Background(), method)
}

// DeployContext is Deploy with cancellation: the placement loop polls ctx
// at its round (or per-placement) boundaries and stops early when the
// context is done, returning the context's error. Sensors placed before
// the interrupt remain on the field — callers that must not observe a
// partial restoration run against a throwaway Clone, as the decor-serve
// request path does. A run that completes is placement-for-placement
// identical to an uncancelled Deploy.
func (d *Deployment) DeployContext(ctx context.Context, method string) (Report, error) {
	meth, err := core.MethodByName(method, d.params.Rs)
	if err != nil {
		return Report{}, err
	}
	// Voronoi radii come from the paper's configuration; respect the
	// user's Rc for the small variant when it differs.
	if v, ok := meth.(core.VoronoiDECOR); ok && method == "voronoi-small" {
		v.Rc = d.params.Rc
		meth = v
	}
	res := meth.Deploy(d.m, d.r.Split(), core.Options{Ctx: ctx})
	placements := make([]Point, len(res.Placed))
	for i, pl := range res.Placed {
		placements[i] = Point(pl.Pos)
	}
	rep := Report{
		Method:          res.Method,
		Placed:          res.NumPlaced(),
		TotalSensors:    d.m.NumSensors(),
		Messages:        res.Messages,
		MessagesPerCell: res.MessagesPerCell(),
		Rounds:          res.Rounds,
		Seeded:          res.Seeded,
		Placements:      placements,
	}
	if res.Interrupted {
		return rep, ctx.Err()
	}
	return rep, nil
}

// Clone returns an independent copy of the deployment: private coverage
// counts, sensor set and RNG state, sharing only the immutable point set
// (the sample points, their index, tiles and adjacencies), which every
// deployment over the same points already shares. Clone and original
// may then be used concurrently from different goroutines; the clone
// replays the original's random stream, so equal operation sequences on
// both yield identical results.
func (d *Deployment) Clone() *Deployment {
	return &Deployment{params: d.params, m: d.m.Clone(), r: d.r.Clone()}
}

// MethodNames lists the deployment algorithms accepted by Deploy.
func MethodNames() []string { return core.AllMethodNames() }

// FailRandom destroys a uniformly chosen fraction (0..1) of the deployed
// sensors and returns their IDs.
func (d *Deployment) FailRandom(fraction float64) []int {
	ids := (failure.Random{Fraction: fraction}).Select(d.m, d.r.Split())
	failure.Apply(d.m, ids)
	return ids
}

// FailArea destroys every sensor within radius of center (the paper's
// natural-disaster model) and returns their IDs.
func (d *Deployment) FailArea(center Point, radius float64) []int {
	ids := (failure.Area{Disk: geom.Disk{Center: geom.Point(center), R: radius}}).Select(d.m, nil)
	failure.Apply(d.m, ids)
	return ids
}

// Connectivity returns the vertex connectivity of the communication
// graph under Rc. With full K-coverage and Rc >= 2·Rs it is at least K
// (paper §2 corollary). This is exponential-ish in network size; intended
// for modest deployments.
func (d *Deployment) Connectivity() int {
	net := network.New()
	for _, s := range d.Sensors() {
		net.Add(s.ID, geom.Point(s.Pos), d.params.Rs, d.params.Rc)
	}
	return net.VertexConnectivity()
}

// ASCII renders the field as a character grid (see internal/render).
func (d *Deployment) ASCII(width int) string { return render.ASCII(d.m, width) }

// SVG renders the field as an SVG document showing sample points and
// sensors.
func (d *Deployment) SVG() string {
	return render.SVG(d.m, render.SVGOptions{ShowPoints: true, ShowSensors: true})
}

// RunFigure regenerates one of the paper's data figures ("fig7".."fig14")
// and returns its text table. quick=true runs a reduced configuration
// (smaller field, 2 runs) suitable for smoke tests; quick=false uses the
// paper's full parameters.
func RunFigure(id string, quick bool) (string, error) {
	cfg := experiment.Default()
	if quick {
		cfg = experiment.Quick()
	}
	fig, err := experiment.ByID(id, cfg)
	if err != nil {
		return "", err
	}
	return fig.Table(), nil
}

func nextID(m *coverage.Map) int {
	if id, ok := m.MaxSensorID(); ok {
		return id + 1
	}
	return 0
}
