// Package core implements the paper's contribution: DECOR, the
// DEpendable COverage Restoration algorithm (§3), in its Grid-based and
// Voronoi-based distributed variants, together with the two evaluation
// baselines (centralized greedy and random placement).
//
// All methods operate on a coverage.Map that may already contain sensors
// (the partially-covered / post-failure case) or be empty (initial
// deployment): restoration and deployment are the same operation, which
// the paper calls out as a benefit of the discrepancy-point formulation.
//
// # Distributed execution model
//
// The distributed variants run in synchronized rounds. At the start of a
// round every responsible node (cell leader, or every sensor in the
// Voronoi scheme) observes a snapshot of the coverage state — everything
// notified up to the end of the previous round — and places at most one
// new sensor at the deficient sample point with maximum benefit (Eq. 1)
// within its responsibility. Placement notifications are exchanged
// between rounds. Concurrent same-round placements near cell borders are
// therefore invisible to each other, which is exactly the coordination
// cost that makes DECOR place more sensors than the centralized greedy
// (Fig. 8) while remaining fully local.
package core

import (
	"context"
	"fmt"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/rng"
)

// Options bounds a deployment run.
type Options struct {
	// MaxPlacements stops the run after this many new sensors
	// (0 = unlimited). Runs stopped early have Result.Capped set.
	MaxPlacements int
	// Ctx, when non-nil, is polled at round boundaries (distributed
	// methods) or per placement (centralized/random): once it is done the
	// run stops early with Result.Interrupted set. Placements applied
	// before the interrupt stay on the map. Cancellation never alters the
	// placements of a run that completes: the polled decision points are
	// loop boundaries, not tie-breakers.
	Ctx context.Context
}

func (o Options) maxPlacements() int {
	if o.MaxPlacements <= 0 {
		return int(^uint(0) >> 1)
	}
	return o.MaxPlacements
}

// interrupted reports whether the run's context (if any) is done.
func (o Options) interrupted() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Placement records one deployed sensor in order.
type Placement struct {
	ID    int
	Pos   geom.Point
	Round int // 0-based round (always 0 for the centralized/random methods)
}

// Result reports a deployment or restoration run.
type Result struct {
	Method string
	// Placed lists the new sensors in placement order, so experiments can
	// replay coverage-vs-node-count curves (Fig. 7).
	Placed []Placement
	// Messages is the total number of protocol messages sent: placement
	// notifications to neighboring leaders (grid) or communication
	// neighbors (Voronoi). The centralized and random baselines send
	// none.
	Messages int
	// NodeMessages attributes messages to the sending node (leader
	// rotation spreads this load; the experiments report its mean).
	NodeMessages map[int]int
	// Cells is the normalization denominator for the paper's
	// messages-per-cell metric: grid cells for the grid scheme, total
	// sensors for the Voronoi scheme (one node per cell).
	Cells int
	// Rounds is the number of synchronized rounds executed.
	Rounds int
	// Seeded counts base-station interventions: sensors seeded into
	// regions unreachable by any existing node (empty cells / orphan
	// points).
	Seeded int
	// Capped reports whether the run stopped at MaxPlacements before
	// reaching full k-coverage.
	Capped bool
	// Interrupted reports whether the run stopped early because
	// Options.Ctx was cancelled or its deadline expired.
	Interrupted bool
}

// NumPlaced returns the number of sensors the run deployed.
func (r Result) NumPlaced() int { return len(r.Placed) }

// MessagesPerCell returns the paper's Fig. 10 metric.
func (r Result) MessagesPerCell() float64 {
	if r.Cells == 0 {
		return 0
	}
	return float64(r.Messages) / float64(r.Cells)
}

// Method is a deployment algorithm. Implementations must be deterministic
// given the RNG stream and must only add sensors to m.
type Method interface {
	// Name identifies the method in experiment output, matching the
	// paper's figure legends.
	Name() string
	// Deploy places sensors on m until every sample point is k-covered
	// (or a cap from opt is reached) and returns the run record.
	Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result
}

// nextSensorID returns the smallest ID strictly greater than every
// existing sensor's, so placements never collide with the pre-deployed
// network.
func nextSensorID(m *coverage.Map) int {
	if id, ok := m.MaxSensorID(); ok {
		return id + 1
	}
	return 0
}

// validateDeployInputs panics on nil inputs — programmer errors shared by
// every method.
func validateDeployInputs(m *coverage.Map, r *rng.RNG) {
	if m == nil {
		panic("core: nil coverage map")
	}
	if r == nil {
		panic("core: nil rng")
	}
}

// MethodByName constructs one of the paper's six evaluated configurations
// by its experiment label:
//
//	centralized, random,
//	grid-small (5×5 cells), grid-big (10×10 cells),
//	voronoi-small (rc = 2·rs), voronoi-big (rc = 10·√2)
//
// rs is needed to derive the Voronoi radii.
func MethodByName(name string, rs float64) (Method, error) {
	switch name {
	case "centralized":
		return Centralized{}, nil
	case "random":
		return RandomPlacement{}, nil
	case "grid-small":
		return GridDECOR{CellSize: 5}, nil
	case "grid-big":
		return GridDECOR{CellSize: 10}, nil
	case "voronoi-small":
		return VoronoiDECOR{Rc: 2 * rs}, nil
	case "voronoi-big":
		return VoronoiDECOR{Rc: 14.142135623730951}, nil
	case "lattice":
		// Not one of the paper's six (AllMethodNames), but accepted for
		// the regular-positioning baseline experiments.
		return RegularLattice{}, nil
	}
	return nil, fmt.Errorf("core: unknown method %q", name)
}

// AllMethodNames lists the labels accepted by MethodByName in the order
// the paper's figures present them.
func AllMethodNames() []string {
	return []string{
		"grid-small", "grid-big",
		"voronoi-small", "voronoi-big",
		"centralized", "random",
	}
}
