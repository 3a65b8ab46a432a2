// Package experiment regenerates every figure of the paper's evaluation
// (§4, Figures 7–14) plus the field illustrations (Figures 4–6). Each
// FigN function runs the corresponding workload — averaging Config.Runs
// randomly-seeded fields exactly as the paper averages 5 runs — and
// returns a Figure holding the same series the paper plots, renderable as
// an aligned text table.
package experiment

import (
	"fmt"
	"strings"
	"sync"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/index"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// Config holds the paper's experimental parameters (§4 defaults).
type Config struct {
	FieldSide      float64 // 100
	NumPoints      int     // 2000 Halton points
	Rs             float64 // 4
	InitialSensors int     // up to 200 pre-deployed random sensors
	Runs           int     // 5 randomly generated fields per data point
	Seed           uint64  // base seed; run i derives Seed+i
	Generator      string  // field approximation: halton (paper), hammersley, ...
	// AreaFailureRadius is the disaster disc radius for Figs. 6, 13, 14.
	AreaFailureRadius float64 // 24 (≈17% of the area)
	// FailureDraws averages this many random failure samples per
	// deployment in Figs. 11–12.
	FailureDraws int
	// Parallel is the worker count for fanning independent
	// (method, k, run) cells across goroutines; 0 means GOMAXPROCS.
	// Results are byte-identical for any value (see parallel.go).
	Parallel int
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		FieldSide:         100,
		NumPoints:         2000,
		Rs:                4,
		InitialSensors:    200,
		Runs:              5,
		Seed:              1,
		Generator:         "halton",
		AreaFailureRadius: 24,
		FailureDraws:      5,
	}
}

// Quick returns a scaled-down configuration for tests and smoke runs.
func Quick() Config {
	c := Default()
	c.FieldSide = 50
	c.NumPoints = 500
	c.InitialSensors = 50
	c.Runs = 2
	c.AreaFailureRadius = 12
	c.FailureDraws = 3
	return c
}

// Field returns the monitored rectangle.
func (c Config) Field() geom.Rect { return geom.Square(c.FieldSide) }

// Points returns the sample-point approximation of the field.
func (c Config) Points() []geom.Point {
	gen, err := lowdisc.ByName(c.Generator, c.Seed)
	if err != nil {
		panic(err) // configs are produced by Default/Quick or validated by callers
	}
	return gen.Points(c.NumPoints, c.Field())
}

// nbShare caches per-field work across experiment cells: every cell of
// a sweep samples the field with the same generator, seed, point count
// and bounds, so the sample-point set and the radius-keyed adjacency are
// built once per process and shared between all cells (and workers — the
// cache is concurrency-safe, its contents immutable; coverage.New copies
// the point slice it is given).
var nbShare sync.Map // nbShareKey -> *fieldCache

type nbShareKey struct {
	gen  string
	seed uint64
	n    int
	side float64
}

type fieldCache struct {
	nb   index.NeighborhoodCache
	once sync.Once
	pts  []geom.Point
	// proto holds the fully initialized pre-deployment map per (k, run):
	// every method of a sweep cell starts from the same initial random
	// scatter, so it is built once and cloned per method.
	mu    sync.Mutex
	proto map[protoKey]*coverage.Map
}

type protoKey struct {
	k, run, init int
	rs           float64
}

// NewMap builds the coverage map for requirement k and pre-deploys the
// initial random sensors for the given run index.
func (c Config) NewMap(k, run int) *coverage.Map {
	shared, _ := nbShare.LoadOrStore(
		nbShareKey{c.Generator, c.Seed, c.NumPoints, c.FieldSide},
		&fieldCache{})
	fc := shared.(*fieldCache)
	fc.once.Do(func() { fc.pts = c.Points() })
	pk := protoKey{k, run, c.InitialSensors, c.Rs}
	fc.mu.Lock()
	proto := fc.proto[pk]
	if proto == nil {
		proto = coverage.New(c.Field(), fc.pts, c.Rs, k)
		proto.ShareNeighborhoods(&fc.nb)
		r := rng.New(c.Seed + uint64(run)*1000003)
		for id := 0; id < c.InitialSensors; id++ {
			proto.AddSensor(id, r.PointInRect(c.Field()))
		}
		if fc.proto == nil {
			fc.proto = map[protoKey]*coverage.Map{}
		}
		fc.proto[pk] = proto
	}
	fc.mu.Unlock()
	return proto.Clone()
}

// DeployRNG returns the method RNG stream for a run.
func (c Config) DeployRNG(run int) *rng.RNG {
	return rng.New(c.Seed + uint64(run)*7777777 + 13)
}

// Methods returns the paper's six evaluated methods.
func (c Config) Methods() []core.Method {
	out := make([]core.Method, 0, 6)
	for _, name := range core.AllMethodNames() {
		m, err := core.MethodByName(name, c.Rs)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// DecorMethods returns only the four distributed DECOR variants
// (Fig. 10 and Fig. 12 plot those).
func (c Config) DecorMethods() []core.Method {
	var out []core.Method
	for _, m := range c.Methods() {
		switch m.(type) {
		case core.GridDECOR, core.VoronoiDECOR:
			out = append(out, m)
		}
	}
	return out
}

// Series is one plotted line: Y[i] is the value at X[i]. Err, when
// non-nil, holds the sample standard deviation across the averaged runs
// (the paper plots means of 5 runs without error bars; we keep the
// dispersion).
type Series struct {
	Label string
	X     []float64
	Y     []float64
	Err   []float64
}

// Figure is one reproduced paper figure.
type Figure struct {
	ID     string // "fig7" ... "fig14"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table renders the figure as an aligned text table: the x column
// followed by one column per series. All series must share their X grid
// (the FigN constructors guarantee it).
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# y: %s\n", f.YLabel)
	// Header.
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%-14.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %14.4g", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TableErr renders the figure like Table but with mean±std cells where
// the dispersion is known.
func (f Figure) TableErr() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# y: %s (mean±std over runs)\n", f.YLabel)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%-14.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			if s.Err != nil {
				fmt.Fprintf(&b, " %12.4g±%-5.3g", s.Y[i], s.Err[i])
			} else {
				fmt.Fprintf(&b, " %18.4g", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%g", f.Series[0].X[i])
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%g", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ByID dispatches to the FigN runner for "fig4".."fig14" (figs 4–6 have
// no data series; see the render package for their pictures — ByID
// returns an error for them).
func ByID(id string, cfg Config) (Figure, error) {
	switch id {
	case "fig7":
		return Fig7(cfg), nil
	case "fig8":
		return Fig8(cfg), nil
	case "fig9":
		return Fig9(cfg), nil
	case "fig10":
		return Fig10(cfg), nil
	case "fig11":
		return Fig11(cfg), nil
	case "fig12":
		return Fig12(cfg), nil
	case "fig13":
		return Fig13(cfg), nil
	case "fig14":
		return Fig14(cfg), nil
	}
	return Figure{}, fmt.Errorf("experiment: unknown figure %q (fig7..fig14)", id)
}

// AllIDs lists the data figures in paper order.
func AllIDs() []string {
	return []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14"}
}
