// Package chaos is the property-testing harness over the fault-injection
// layer in internal/sim: it builds a deterministic world for one of the
// protocol architectures (grid DECOR deployment, Voronoi DECOR
// deployment, or the self-healing monitored field), installs a seeded
// sim.FaultPlan, drives the run to completion while the invariant
// checker watches, and returns a machine-readable Verdict with a SHA-256
// hash of the event trace. Identical scenarios replay byte-identically,
// so any failing seed reported by the fuzzer, the property tests, or
// `make chaos-smoke` can be handed to cmd/decor-chaos for a post-mortem.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/obs"
	"decor/internal/partition"
	"decor/internal/protocol"
	"decor/internal/rng"
	"decor/internal/sim"
	"decor/internal/sim/invariant"
)

// timelineTail bounds the flight-recorder excerpt attached to a failed
// verdict: the newest events leading up to the failure.
const timelineTail = 100

// Architecture names accepted by Run.
const (
	ArchGrid     = "grid"
	ArchVoronoi  = "voronoi"
	ArchSelfheal = "selfheal"
)

// Archs lists the supported architectures in canonical order.
func Archs() []string { return []string{ArchGrid, ArchVoronoi, ArchSelfheal} }

// saboteurActor injects sensor hardware failures in the selfheal
// scenario. It sits just below the invariant watchdog, outside every
// protocol ID bank, and is never a crash or partition target.
const saboteurActor = invariant.WatchdogActor - 1

// Scenario fully determines one chaos run: world geometry, protocol
// parameters, and the fault plan. Two Runs of an identical Scenario
// produce byte-identical traces and equal Verdicts.
type Scenario struct {
	Arch string        `json:"arch"`
	Seed uint64        `json:"seed"`
	Plan sim.FaultPlan `json:"plan"`
	Loss float64       `json:"loss"` // uniform loss rate on top of the plan

	// World geometry: Points sample points (Halton) over a Field×Field
	// square, k-coverage with sensing radius Rs.
	Field    float64 `json:"field"`
	Points   int     `json:"points"`
	K        int     `json:"k"`
	Rs       float64 `json:"rs"`
	Rc       float64 `json:"rc"`        // voronoi communication radius
	CellSize float64 `json:"cell_size"` // grid + selfheal partition

	Latency sim.Time `json:"latency"`
	Period  sim.Time `json:"period"` // leader/node wake-up period

	// Selfheal-only: heartbeat period, timeout multiplier, run horizon,
	// and the number of sensor hardware failures injected.
	Tc          sim.Time `json:"tc"`
	TimeoutMult int      `json:"timeout_mult"`
	Horizon     sim.Time `json:"horizon"`
	Failures    int      `json:"failures"`

	// Budget is the invariant ceiling on deployed sensors; 0 means the
	// default 4·K·Points (comfortably above the k·N theoretical bound,
	// low enough to catch runaway placement).
	Budget int `json:"budget"`
}

// DefaultScenario returns the canonical scenario for an architecture and
// seed: fixed world geometry plus a seed-derived bounded fault plan.
func DefaultScenario(arch string, seed uint64) Scenario {
	sc := Scenario{
		Arch:        arch,
		Seed:        seed,
		Field:       30,
		Points:      100,
		K:           2,
		Rs:          4,
		Rc:          8,
		CellSize:    5,
		Latency:     0.05,
		Period:      1,
		Tc:          1,
		TimeoutMult: 3,
		Horizon:     120,
		Failures:    6,
	}
	sc.Plan = BoundedPlan(sc)
	return sc
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Budget == 0 {
		sc.Budget = 4 * sc.K * sc.Points
	}
	return sc
}

// faultHorizon is the probabilistic-fault window for the architecture:
// deployment runs get a fixed 40 virtual seconds of weather, the
// selfheal run gets the first third of its horizon so coverage has time
// to recover before the final check.
func (sc Scenario) faultHorizon() sim.Time {
	if sc.Arch == ArchSelfheal {
		return sc.Horizon / 3
	}
	return 40
}

// ActorUniverse returns the engine actor IDs that crashes and partitions
// may target under this scenario's architecture, ascending.
func (sc Scenario) ActorUniverse() []int {
	var ids []int
	switch sc.Arch {
	case ArchVoronoi:
		// Early sensor IDs; later ones may never exist under some seeds,
		// and crashing a never-registered actor is a harmless no-op.
		for id := 0; id < 40; id++ {
			ids = append(ids, protocol.SensorActor(id))
		}
	case ArchSelfheal:
		side := int(sc.Field/sc.CellSize) + 1
		for c := 0; c < side*side; c++ {
			ids = append(ids, protocol.MonitorActor(c))
		}
	default: // grid
		cells := partition.NewGrid(geom.Square(sc.Field), sc.CellSize).NumCells()
		for c := 0; c < cells; c++ {
			ids = append(ids, protocol.LeaderActor(c))
		}
	}
	return ids
}

// BoundedPlan derives a seeded fault plan inside the severity bound
// (sim.FaultPlan.Bounded, DESIGN.md §10) for the scenario's
// architecture: delay, duplication, and an escapable burst channel under
// a finite horizon, a few crashes aimed at the architecture's actors,
// and a healing partition. Selfheal monitor crashes always restart —
// the monitored field has no monitor re-election, so a permanent monitor
// crash is outside the bound (and exactly the regression the invariant
// suite plants on purpose).
func BoundedPlan(sc Scenario) sim.FaultPlan {
	r := rng.New(sc.Seed ^ 0xc4a05)
	horizon := sc.faultHorizon()
	plan := sim.FaultPlan{
		Seed:      sc.Seed,
		Until:     horizon,
		DelayProb: r.Range(0, 0.4),
		DelayMax:  sim.Time(r.Range(0.1, 3*float64(sc.Period))),
		DupProb:   r.Range(0, 0.3),
	}
	if r.Bool(0.6) {
		plan.Burst = &sim.GilbertElliott{
			PGoodToBad: r.Range(0.01, 0.2),
			PBadToGood: r.Range(0.05, 0.5),
			LossGood:   r.Range(0, 0.05),
			LossBad:    r.Range(0.3, 0.95),
		}
	}
	universe := sc.ActorUniverse()
	for _, i := range r.Sample(len(universe), r.Intn(3)) {
		at := sim.Time(r.Range(0.5, 0.6*float64(horizon)))
		c := sim.Crash{Actor: universe[i], At: at}
		if sc.Arch == ArchSelfheal || r.Bool(0.5) {
			c.RestartAt = at + sim.Time(r.Range(1, 0.2*float64(horizon)))
		}
		plan.Crashes = append(plan.Crashes, c)
	}
	if r.Bool(0.5) && len(universe) >= 2 {
		from := sim.Time(r.Range(0, 0.4*float64(horizon)))
		until := from + sim.Time(r.Range(1, 0.5*float64(horizon)))
		if until > horizon {
			until = horizon
		}
		var a, b []int
		for i, id := range universe {
			if i%2 == 0 {
				a = append(a, id)
			} else {
				b = append(b, id)
			}
		}
		plan.Partitions = []sim.Partition{{From: from, Until: until, A: a, B: b}}
	}
	return plan
}

// DecodeScenario maps arbitrary fuzz bytes onto a Scenario whose plan is
// bounded BY CONSTRUCTION: every probability is clamped into the
// severity region, the burst channel always keeps its escape path, and
// partition windows heal within the horizon. Short (or empty) input
// decodes to a valid low-severity scenario, so the fuzzer can only
// explore the space the property suite promises to survive.
func DecodeScenario(data []byte) Scenario {
	cur := cursor{data: data}
	arch := []string{ArchGrid, ArchVoronoi}[int(cur.b())%2]
	sc := DefaultScenario(arch, cur.u64())
	horizon := sc.faultHorizon()
	p := sim.FaultPlan{
		Seed:      sc.Seed,
		Until:     horizon,
		DelayProb: cur.f() * 0.5,
		DelayMax:  sim.Time(0.05 + cur.f()*2),
		DupProb:   cur.f() * 0.5,
	}
	if cur.b()%2 == 1 {
		p.Burst = &sim.GilbertElliott{
			PGoodToBad: cur.f() * 0.2,
			PBadToGood: 0.05 + cur.f()*0.75,
			LossGood:   cur.f() * 0.1,
			LossBad:    cur.f() * 0.95,
		}
	}
	universe := sc.ActorUniverse()
	for i := int(cur.b()) % 4; i > 0; i-- {
		at := sim.Time(0.5 + cur.f()*0.6*float64(horizon))
		c := sim.Crash{Actor: universe[int(cur.b())%len(universe)], At: at}
		if cur.b()%2 == 1 {
			c.RestartAt = at + sim.Time(1+cur.f()*0.2*float64(horizon))
		}
		p.Crashes = append(p.Crashes, c)
	}
	if cur.b()%2 == 1 && len(universe) >= 2 {
		from := sim.Time(cur.f() * 0.4 * float64(horizon))
		until := from + sim.Time(1+cur.f()*0.5*float64(horizon))
		if until > horizon {
			until = horizon
		}
		var a, b []int
		for i, id := range universe {
			if i%2 == 0 {
				a = append(a, id)
			} else {
				b = append(b, id)
			}
		}
		p.Partitions = []sim.Partition{{From: from, Until: until, A: a, B: b}}
	}
	sc.Plan = p
	sc.Loss = cur.f() * 0.3
	return sc
}

// cursor consumes fuzz bytes; past the end it yields zeros, so any
// prefix of a valid encoding is itself valid.
type cursor struct {
	data []byte
	i    int
}

func (c *cursor) b() byte {
	if c.i >= len(c.data) {
		return 0
	}
	v := c.data[c.i]
	c.i++
	return v
}

func (c *cursor) f() float64 { return float64(c.b()) / 255 }

func (c *cursor) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(c.b())
	}
	return v
}

// Verdict is the machine-readable outcome of one chaos run.
type Verdict struct {
	Arch       string                `json:"arch"`
	Seed       uint64                `json:"seed"`
	OK         bool                  `json:"ok"` // converged and invariant-clean
	Converged  bool                  `json:"converged"`
	Violations []invariant.Violation `json:"violations,omitempty"`
	TraceHash  string                `json:"trace_hash"`
	TraceLines int                   `json:"trace_lines"`
	Placed     int                   `json:"placed"`
	Seeds      int                   `json:"seeds"`   // base-station seeds (deploy archs)
	Repairs    int                   `json:"repairs"` // autonomous repairs (selfheal)
	FinalTime  sim.Time              `json:"final_time"`
	Stats      sim.Stats             `json:"stats"`
	// Timeline is the flight-recorder tail (newest timelineTail events)
	// of a FAILED run — the structured post-mortem decor-chaos prints.
	// Clean runs omit it to keep verdicts compact. Events carry only
	// virtual time and per-run sequence numbers, so replays of the same
	// scenario produce byte-identical timelines.
	Timeline []obs.FlightEvent `json:"timeline,omitempty"`
}

// Run executes the scenario to completion and returns its verdict.
// It panics only on a malformed scenario (unknown arch, invalid plan) —
// protocol misbehaviour under faults is reported in the verdict, never
// thrown.
func Run(sc Scenario) Verdict {
	sc = sc.withDefaults()
	switch sc.Arch {
	case ArchGrid, ArchVoronoi:
		return runDeploy(sc)
	case ArchSelfheal:
		return runSelfheal(sc)
	default:
		panic(fmt.Sprintf("chaos: unknown architecture %q", sc.Arch))
	}
}

// trace digests a run's engine trace: the SHA-256 of every line so far
// and their count.
type trace struct {
	h     hash.Hash
	lines int
}

// world builds the deterministic sample-point field and a traced engine
// with a per-run flight recorder (the engine is its only writer, so
// event sequence numbers are deterministic).
func (sc Scenario) world() (*coverage.Map, *sim.Engine, *trace, *obs.FlightRecorder) {
	pts := lowdisc.Halton{}.Points(sc.Points, geom.Square(sc.Field))
	m := coverage.New(geom.Square(sc.Field), pts, sc.Rs, sc.K)
	eng := sim.NewEngine(sc.Latency)
	fr := obs.NewFlightRecorder(512)
	eng.SetFlight(fr)
	tr := &trace{h: sha256.New()}
	// The engine formats each line into a reused buffer (byte-identical
	// to the former fmt composition — the golden hashes in replay_test.go
	// prove it), so hashing the trace allocates nothing per event.
	eng.SetTraceLine(func(line []byte) {
		tr.h.Write(line)
		tr.lines++
	})
	if sc.Loss > 0 {
		eng.SetLossRate(sc.Loss, sc.Seed^0x10c0)
	}
	eng.SetFaults(sc.Plan)
	return m, eng, tr, fr
}

func verdict(sc Scenario, eng *sim.Engine, chk *invariant.Checker, converged bool, tr *trace, fr *obs.FlightRecorder) Verdict {
	st := eng.Totals() // SentBy omitted: verdicts stay compact and comparable
	v := Verdict{
		Arch:       sc.Arch,
		Seed:       sc.Seed,
		Converged:  converged,
		Violations: chk.Violations(),
		TraceHash:  hex.EncodeToString(tr.h.Sum(nil)),
		TraceLines: tr.lines,
		FinalTime:  eng.Now(),
		Stats:      st,
	}
	v.OK = v.Converged && len(v.Violations) == 0
	if !v.OK {
		v.Timeline = obs.Tail(fr.Dump(), timelineTail)
	}
	return v
}

// runDeploy drives an event-driven deployment (grid or Voronoi) exactly
// like protocol.RunDeployment, but re-runs the accounting and budget
// invariants at every quiescent point and the k-coverage invariant at
// the end. The seed fallback guarantees convergence under any bounded
// plan: each drain that leaves coverage deficient places at least one
// sensor at a deficient point, so total deficit strictly decreases.
func runDeploy(sc Scenario) Verdict {
	m, eng, tr, fr := sc.world()

	var seed func() bool
	var placed func() int
	var actorFor func(point int) int
	if sc.Arch == ArchGrid {
		w := protocol.NewWorld(m, sc.CellSize, eng, sc.Period)
		w.Start()
		seed = w.Seed
		placed = func() int { return len(w.PlacementLog) }
		actorFor = func(point int) int {
			return protocol.LeaderActor(w.Part.CellIndex(m.Point(point)))
		}
	} else {
		w := protocol.NewVoronoiWorld(m, sc.Rc, eng, sc.Period)
		w.Start()
		seed = w.Seed
		placed = func() int { return len(w.PlacementLog) }
		actorFor = nil // points have no statically responsible node
	}

	chk := invariant.New().
		Add(invariant.Accounting(eng)).
		Add(invariant.Budget(m, sc.Budget))

	seeds := 0
	for !m.FullyCovered() {
		eng.Run(sim.Inf)
		chk.RunAt(eng.Now())
		if m.FullyCovered() || m.NumSensors() > sc.Budget {
			break
		}
		if !seed() {
			break
		}
		seeds++
	}
	// Deployment over: coverage must hold now (the "eventually" is the
	// run itself).
	chk.Add(invariant.KCoverage(m, actorFor))
	chk.RunAt(eng.Now())

	v := verdict(sc, eng, chk, m.FullyCovered(), tr, fr)
	v.Placed = placed()
	v.Seeds = seeds
	return v
}

// saboteur fails sensors (hardware death, not actor crash) at scheduled
// virtual times in the selfheal scenario.
type saboteur struct {
	field   *protocol.MonitoredField
	victims []int
	times   []sim.Time
	// failed records victims whose failure has fired — the ground truth
	// the liveness invariant is checked against, since the coverage map
	// keeps a dead sensor until a monitor detects the silence.
	failed map[int]bool
}

func (s *saboteur) OnStart(ctx *sim.Context) {
	for i, t := range s.times {
		ctx.SetTimer(t, fmt.Sprintf("fail:%d", i))
	}
}

func (s *saboteur) OnMessage(*sim.Context, sim.Message) {}

func (s *saboteur) OnTimer(_ *sim.Context, tag string) {
	var i int
	if _, err := fmt.Sscanf(tag, "fail:%d", &i); err == nil {
		s.failed[s.victims[i]] = true
		s.field.Fail(s.victims[i])
	}
}

// liveCoverage returns the physical coverage truth: the map minus failed
// sensors that no monitor has detected (and removed) yet.
func (s *saboteur) liveCoverage(m *coverage.Map) *coverage.Map {
	truth := m.Clone()
	for id := range s.failed {
		if _, ok := truth.SensorPos(id); ok {
			truth.RemoveSensor(id)
		}
	}
	return truth
}

// runSelfheal deploys a covered field deterministically, attaches the
// monitored-field protocol, injects seeded sensor failures in the first
// third of the horizon, and requires coverage to be whole again by the
// end while the watchdog re-checks accounting and the budget throughout.
func runSelfheal(sc Scenario) Verdict {
	m, eng, tr, fr := sc.world()

	// Deterministic initial deployment: greedily drop a sensor on the
	// lowest-index uncovered point until every point is k-covered. The
	// scan reads counts directly instead of materializing the uncovered
	// set per iteration — same placement sequence, zero allocations.
	next := 0
	for !m.FullyCovered() {
		idx := -1
		for i := 0; i < m.NumPoints(); i++ {
			if m.Count(i) < m.K() {
				idx = i
				break
			}
		}
		m.AddSensor(next, m.Point(idx))
		next++
	}

	f := protocol.NewMonitoredField(m, eng, sc.CellSize, sc.Tc, sc.TimeoutMult)
	f.Start()

	// Seeded victims among the deployed sensors, all failing inside the
	// fault horizon so healing has the rest of the run.
	ids := m.SensorIDs() // already ascending
	r := rng.New(sc.Seed ^ 0x5ab07)
	n := sc.Failures
	if n > len(ids)/4 {
		n = len(ids) / 4
	}
	sab := &saboteur{field: f, failed: map[int]bool{}}
	for _, i := range r.Sample(len(ids), n) {
		sab.victims = append(sab.victims, ids[i])
		sab.times = append(sab.times, sim.Time(r.Range(0.5, float64(sc.faultHorizon()))))
	}
	eng.Register(saboteurActor, sab)

	// Coverage is checked against LIVE sensors: a failed sensor still sits
	// in the map until its monitor detects the silence, but it no longer
	// senses — so a crashed monitor that never detects (and never heals)
	// is a real k-coverage breach, not a clean run.
	liveKCoverage := func(now sim.Time) []invariant.Violation {
		return invariant.KCoverage(sab.liveCoverage(m), func(point int) int {
			return protocol.MonitorActor(f.CellOf(m.Point(point)))
		})(now)
	}
	chk := invariant.New().
		Add(invariant.Accounting(eng)).
		Add(invariant.Budget(m, sc.Budget)).
		Add(invariant.After(sc.Horizon, liveKCoverage))
	chk.Watch(eng, sc.Tc)

	eng.Run(sc.Horizon)
	chk.RunAt(sc.Horizon) // final check, with the coverage gate open

	v := verdict(sc, eng, chk, sab.liveCoverage(m).FullyCovered(), tr, fr)
	v.Placed = m.NumSensors()
	v.Repairs = len(f.Repairs)
	return v
}
