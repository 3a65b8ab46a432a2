package service

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"decor/internal/core"
	"decor/internal/lowdisc"
)

// PointSpec is a position on the field in request/response JSON.
type PointSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// SensorSpec is one pre-deployed sensor in a request. ID is optional:
// either every sensor carries an explicit ID or none does (sequential IDs
// 0..n-1 are assigned), so /v1/repair failure references are unambiguous.
type SensorSpec struct {
	ID *int    `json:"id,omitempty"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// PlanRequest is the body of POST /v1/plan: a field description, the
// surviving deployment, and the reliability requirement; the response is
// the placement plan restoring full k-coverage.
type PlanRequest struct {
	// FieldSide is the edge length of the square monitored area.
	FieldSide float64 `json:"field_side"`
	// K is the coverage requirement (>= 1).
	K int `json:"k"`
	// Rs is the sensing radius; Rc the communication radius (default 2·Rs).
	Rs float64 `json:"rs"`
	Rc float64 `json:"rc,omitempty"`
	// NumPoints sizes the low-discrepancy field approximation (default
	// 2000, the paper's configuration).
	NumPoints int `json:"num_points,omitempty"`
	// Generator selects the point set (default "halton").
	Generator string `json:"generator,omitempty"`
	// Seed drives all randomness; equal requests replay identically.
	Seed uint64 `json:"seed,omitempty"`
	// Sensors lists the pre-deployed network explicitly; Scatter
	// additionally places this many uniform random sensors (the paper's
	// initial network). Both may be used together; scattered sensors take
	// IDs after the explicit ones.
	Sensors []SensorSpec `json:"sensors,omitempty"`
	Scatter int          `json:"scatter,omitempty"`
	// Method is one of the paper's six algorithms (default "voronoi-big").
	Method string `json:"method,omitempty"`
	// TimeoutMS bounds this request's planning time, including the wait
	// for a run slot (0 = server default; clamped to the server maximum).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// RepairRequest is the body of POST /v1/repair: a full deployment plus
// the IDs of sensors known to have failed. The service destroys those
// sensors and plans the restoration of the survivors' field.
type RepairRequest struct {
	PlanRequest
	// Failed lists the destroyed sensors by ID (explicit IDs when the
	// request gives them, otherwise the implicit sequential ones).
	Failed []int `json:"failed"`
}

// Limits bounds what a single request may ask of the server. All caps
// are checked during validation, before any field or deployment is
// allocated.
type Limits struct {
	// MaxBodyBytes caps the request body (http.MaxBytesReader); larger
	// bodies fail with 413 without being read further.
	MaxBodyBytes int64
	// MaxPoints / MaxSensors cap the work one plan may demand.
	// MaxSensors bounds len(Sensors)+Scatter.
	MaxPoints  int
	MaxSensors int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout clamps explicit ones.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
}

// DefaultLimits are production-shaped bounds: a full figure-scale field
// fits comfortably, while degenerate requests (giant point counts,
// absurd k) are rejected up front.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes:   1 << 20, // 1 MiB ≈ 25k sensors with explicit IDs
		MaxPoints:      20000,
		MaxSensors:     10000,
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     15 * time.Second,
	}
}

func (l Limits) normalized() Limits {
	d := DefaultLimits()
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = d.MaxBodyBytes
	}
	if l.MaxPoints <= 0 {
		l.MaxPoints = d.MaxPoints
	}
	if l.MaxSensors <= 0 {
		l.MaxSensors = d.MaxSensors
	}
	if l.DefaultTimeout <= 0 {
		l.DefaultTimeout = d.DefaultTimeout
	}
	if l.MaxTimeout <= 0 {
		l.MaxTimeout = d.MaxTimeout
	}
	if l.DefaultTimeout > l.MaxTimeout {
		l.DefaultTimeout = l.MaxTimeout
	}
	return l
}

// apiError is a client-visible failure with an HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// validGenSet / validMethodSet memoize the accepted name vocabularies at
// init (read from lowdisc.Names and probed through the method
// constructor, so they can never drift), turning per-request validation
// into an alloc-free map probe instead of boxing a generator/method
// value into an interface every time.
var validGenSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, n := range lowdisc.Names() {
		m[n] = true
	}
	return m
}()

var validMethodSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, n := range append(core.AllMethodNames(), "lattice") {
		if _, err := core.MethodByName(n, 1); err == nil {
			m[n] = true
		}
	}
	return m
}()

func validGenerator(name string) bool { return validGenSet[name] }

func validMethod(name string) bool { return validMethodSet[name] }

// maxK caps the coverage requirement k. Like the caps below, it bounds
// the work one request may demand whatever the deployment, so it is a
// constant, not a Limits field.
const maxK = 64

// maxSensorID caps explicit sensor IDs at 2^53-1, the top of the
// integer range I-JSON (RFC 7493) readers handle exactly. It keeps IDs
// echoed in session deltas exact in any reader, and leaves room above
// the largest explicit ID for the IDs the server assigns (scattered and
// placed sensors count up from it) without wrapping.
const maxSensorID = 1<<53 - 1

// maxGridCells caps each cell grid a request makes the planner build:
// the two rs-spaced index grids of its coverage map, of
// (⌈field_side/rs⌉+1)² buckets each, and a grid method's
// ⌈field_side/cell⌉² cells. 2^18 holds one index grid to about 6 MB and
// is 100× the largest grid any workload, test or tool builds.
const maxGridCells = 1 << 18

// maxAdjacencyEntries caps the point adjacency a request makes the
// planner build: about n·min(n, n·π·rs²/side²) entries for n sample
// points, 4 bytes each. The build grows with n² and no deadline stops
// it (deadlines are polled at round boundaries), and a shared point set
// keeps it resident after the request. 2^24 entries is 64 MiB, 33× the
// largest adjacency any workload, test or tool builds (field-events:
// 20000 points on side 200 at rs 4, about 5·10^5 entries).
const maxAdjacencyEntries = 1 << 24

// methodCellSize memoizes each grid method's cell edge, read from the
// method constructor so the cell-grid cap can never drift from it.
var methodCellSize = func() map[string]float64 {
	m := make(map[string]float64)
	for n := range validMethodSet {
		if g, err := core.MethodByName(n, 1); err == nil {
			if grid, ok := g.(core.GridDECOR); ok {
				m[n] = grid.CellSize
			}
		}
	}
	return m
}()

// normalize validates pr against lim and fills defaults, returning the
// form execution runs. Every rejection is an *apiError carrying the
// client-facing message.
func (pr PlanRequest) normalize(lim Limits) (PlanRequest, error) {
	ids := getIDSet()
	defer putIDSet(ids)
	return pr.normalizeIDs(lim, ids)
}

// normalizeIDs is normalize, leaving the sensor IDs in ids so a repair
// can check its failed list against the same set.
func (pr PlanRequest) normalizeIDs(lim Limits, ids map[int]bool) (PlanRequest, error) {
	if !isFinite(pr.FieldSide) || pr.FieldSide <= 0 {
		return pr, badRequest("field_side must be positive and finite")
	}
	if pr.K < 1 {
		return pr, badRequest("k must be at least 1")
	}
	if pr.K > maxK {
		return pr, badRequest("k %d exceeds the server limit %d", pr.K, maxK)
	}
	if !isFinite(pr.Rs) || pr.Rs <= 0 {
		return pr, badRequest("rs must be positive and finite")
	}
	if !isFinite(pr.Rc) || pr.Rc < 0 {
		return pr, badRequest("rc must be non-negative and finite")
	}
	if pr.Rc == 0 {
		pr.Rc = 2 * pr.Rs
	}
	if pr.Rc < pr.Rs {
		return pr, badRequest("rc %g must be at least rs %g (paper §2)", pr.Rc, pr.Rs)
	}
	if pr.NumPoints == 0 {
		pr.NumPoints = 2000
	}
	if pr.NumPoints < 1 {
		return pr, badRequest("num_points must be positive")
	}
	if pr.NumPoints > lim.MaxPoints {
		return pr, badRequest("num_points %d exceeds the server limit %d", pr.NumPoints, lim.MaxPoints)
	}
	if pr.Generator == "" {
		pr.Generator = "halton"
	}
	if !validGenerator(pr.Generator) {
		return pr, badRequest("unknown generator %q", pr.Generator)
	}
	if pr.Scatter < 0 {
		return pr, badRequest("scatter must be non-negative")
	}
	if n := len(pr.Sensors) + pr.Scatter; n > lim.MaxSensors {
		return pr, badRequest("sensor count %d exceeds the server limit %d", n, lim.MaxSensors)
	}
	if pr.Method == "" {
		pr.Method = "voronoi-big"
	}
	if !validMethod(pr.Method) {
		return pr, badRequest("unknown method %q", pr.Method)
	}
	if pr.TimeoutMS < 0 {
		return pr, badRequest("timeout_ms must be non-negative")
	}
	// The grids sized from the field: the (⌈side/rs⌉+1)² buckets of
	// index.NewGrid, which the point index's offsets and the sensor
	// table's chain heads span, and an upper bound on partition.NewGrid's
	// cells.
	if c := math.Ceil(pr.FieldSide/pr.Rs) + 1; c*c > maxGridCells {
		return pr, badRequest("field_side %g at rs %g needs index grids of %g cells each, over the limit of %d cells",
			pr.FieldSide, pr.Rs, c*c, maxGridCells)
	}
	if cell := methodCellSize[pr.Method]; cell > 0 {
		if c := math.Ceil(pr.FieldSide / cell); c*c > maxGridCells {
			return pr, badRequest("field_side %g needs a %s grid of %g cells, over the limit of %d cells",
				pr.FieldSide, pr.Method, c*c, maxGridCells)
		}
	}
	n := float64(pr.NumPoints)
	if e := n * math.Min(n, n*math.Pi*pr.Rs*pr.Rs/(pr.FieldSide*pr.FieldSide)); e > maxAdjacencyEntries {
		return pr, badRequest("num_points %d at rs %g on field_side %g needs a point adjacency of about %.4g entries, over the limit of %d entries",
			pr.NumPoints, pr.Rs, pr.FieldSide, e, maxAdjacencyEntries)
	}

	// Sensors: finite in-field positions; IDs all explicit or all
	// implicit, non-negative, at most maxSensorID and distinct.
	// Normalizing to explicit IDs here gives execution and the repair ID
	// space one form.
	if len(pr.Sensors) == 0 {
		return pr, nil
	}
	explicit := 0
	for _, s := range pr.Sensors {
		if s.ID != nil {
			explicit++
		}
	}
	if explicit != 0 && explicit != len(pr.Sensors) {
		return pr, badRequest("either every sensor carries an id or none does")
	}
	// Explicit IDs keep the decoded slice; implicit ones are numbered
	// into one new slice whose IDs share one backing array.
	norm, implicit := pr.Sensors, []int(nil)
	if explicit == 0 {
		norm, implicit = make([]SensorSpec, len(pr.Sensors)), make([]int, len(pr.Sensors))
	}
	for i, s := range pr.Sensors {
		if !isFinite(s.X) || !isFinite(s.Y) {
			return pr, badRequest("sensor %d has a non-finite coordinate", i)
		}
		if s.X < 0 || s.X > pr.FieldSide || s.Y < 0 || s.Y > pr.FieldSide {
			return pr, badRequest("sensor %d at (%g, %g) is outside the field [0, %g]²", i, s.X, s.Y, pr.FieldSide)
		}
		id := i
		if s.ID != nil {
			id = *s.ID
			if id < 0 {
				return pr, badRequest("sensor %d has negative id %d", i, id)
			}
			if id > maxSensorID {
				return pr, badRequest("sensor %d id %d exceeds the limit %d (2^53-1)", i, id, maxSensorID)
			}
		}
		if _, dup := ids[id]; dup {
			return pr, badRequest("duplicate sensor id %d", id)
		}
		ids[id] = false
		if implicit != nil {
			implicit[i] = id
			norm[i] = SensorSpec{ID: &implicit[i], X: s.X, Y: s.Y}
		}
	}
	pr.Sensors = norm
	return pr, nil
}

// normalize validates the repair request: the embedded plan fields plus
// the failed-ID references, which must name existing sensors (explicit
// or scattered) exactly once each.
func (rr RepairRequest) normalize(lim Limits) (RepairRequest, error) {
	ids := getIDSet()
	defer putIDSet(ids)
	pr, err := rr.PlanRequest.normalizeIDs(lim, ids)
	if err != nil {
		return rr, err
	}
	rr.PlanRequest = pr
	if len(rr.Failed) == 0 {
		// Nothing to validate against the deployment's ID space.
		return rr, nil
	}
	// Scattered sensors take sequential IDs after the largest explicit
	// one — the facade's nextID rule — so they are checked as a range;
	// the set holds the sensor IDs and marks each failed one.
	maxID := -1
	for _, s := range pr.Sensors {
		maxID = max(maxID, *s.ID)
	}
	for _, id := range rr.Failed {
		failed, listed := ids[id]
		if !listed && (id <= maxID || id > maxID+pr.Scatter) {
			return rr, badRequest("failed sensor id %d does not exist in the deployment", id)
		}
		if failed {
			return rr, badRequest("duplicate failed sensor id %d", id)
		}
		ids[id] = true
	}
	return rr, nil
}

// The one ID set a request's validation builds maps each sensor ID to
// whether a repair has named it failed. It comes from a pool and goes
// back cleared, so a request allocates no set of its own.
var idSetPool = sync.Pool{New: func() any { return make(map[int]bool) }}

func getIDSet() map[int]bool { return idSetPool.Get().(map[int]bool) }

func putIDSet(ids map[int]bool) {
	clear(ids)
	idSetPool.Put(ids)
}

// timeout resolves the request's effective deadline under lim.
func (pr PlanRequest) timeout(lim Limits) time.Duration {
	if pr.TimeoutMS == 0 {
		return lim.DefaultTimeout
	}
	d := time.Duration(pr.TimeoutMS) * time.Millisecond
	if d > lim.MaxTimeout {
		return lim.MaxTimeout
	}
	return d
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
