// Package invariant checks protocol-level safety and liveness conditions
// over a running (or finished) simulation: eventual k-coverage of the
// point set, at-most-one live leader per grid cell after quiescence,
// placement budgets, and message-count accounting against the engine's
// Stats(). A Checker runs its checks after a run, or periodically during
// one via a watchdog actor, and reports every violation with the virtual
// time it was observed and the offending actor — the evidence a failing
// chaos seed needs to be debuggable.
package invariant

import (
	"fmt"
	"sort"

	"decor/internal/coverage"
	"decor/internal/sim"
)

// Canonical invariant names.
const (
	KCoverageName  = "k-coverage"
	LeaderName     = "leader-unique"
	BudgetName     = "budget"
	AccountingName = "accounting"
)

// Violation is one observed invariant breach.
type Violation struct {
	Invariant string   `json:"invariant"`
	Time      sim.Time `json:"time"`    // virtual time of the observation
	Actor     int      `json:"actor"`   // offending actor id (-1 if none)
	Subject   int      `json:"subject"` // what the breach is about: point or cell index (-1 if none)
	Detail    string   `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violated at t=%.3f (actor %d): %s", v.Invariant, float64(v.Time), v.Actor, v.Detail)
}

// Check evaluates one invariant at a virtual time, returning any
// violations it observes.
type Check func(now sim.Time) []Violation

// Checker aggregates named checks and the violations they report.
// Violations are deduplicated by (invariant, actor, subject), keeping the
// FIRST observation — the earliest virtual time the condition was seen
// broken.
type Checker struct {
	checks []Check
	seen   map[string]bool
	vs     []Violation
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{seen: map[string]bool{}}
}

// Add registers a check; its violations name their invariant.
func (c *Checker) Add(fn Check) *Checker {
	c.checks = append(c.checks, fn)
	return c
}

// RunAt evaluates every registered check at the given virtual time.
func (c *Checker) RunAt(now sim.Time) {
	for _, check := range c.checks {
		for _, v := range check(now) {
			key := fmt.Sprintf("%s/%d/%d", v.Invariant, v.Actor, v.Subject)
			if c.seen[key] {
				continue
			}
			c.seen[key] = true
			c.vs = append(c.vs, v)
		}
	}
}

// Violations returns the recorded violations in observation order.
func (c *Checker) Violations() []Violation { return append([]Violation(nil), c.vs...) }

// watchdog is the actor that re-runs the checker on a period. It uses a
// dedicated high actor id so it never collides with protocol actors.
type watchdog struct {
	checker *Checker
	every   sim.Time
}

// WatchdogActor is the engine id the periodic checker registers under.
const WatchdogActor = (1 << 23) - 1

func (w *watchdog) OnStart(ctx *sim.Context)            { ctx.SetTimer(w.every, "check") }
func (w *watchdog) OnMessage(*sim.Context, sim.Message) {}
func (w *watchdog) OnTimer(ctx *sim.Context, tag string) {
	w.checker.RunAt(ctx.Now())
	ctx.SetTimer(w.every, "check")
}

// Watch registers a watchdog actor that re-runs the checker every
// `every` virtual seconds for as long as the engine keeps processing
// events. Note the watchdog's own timer keeps the queue non-empty, so
// drive the engine with Run(horizon), not Run(sim.Inf).
func (c *Checker) Watch(eng *sim.Engine, every sim.Time) {
	if every <= 0 {
		panic("invariant: non-positive watch period")
	}
	eng.Register(WatchdogActor, &watchdog{checker: c, every: every})
}

// KCoverage returns a check asserting every sample point is covered by at
// least m.K() sensors. actorFor maps a deficient point index to the actor
// responsible for it (the cell leader/monitor that should have healed
// it); nil reports actor -1. Coverage is only required eventually — gate
// the check with After for runs that legitimately start deficient.
func KCoverage(m *coverage.Map, actorFor func(point int) int) Check {
	return func(now sim.Time) []Violation {
		var vs []Violation
		for i := 0; i < m.NumPoints(); i++ {
			if d := m.Deficit(i); d > 0 {
				actor := -1
				if actorFor != nil {
					actor = actorFor(i)
				}
				vs = append(vs, Violation{
					Invariant: KCoverageName, Time: now, Actor: actor, Subject: i,
					Detail: fmt.Sprintf("point %d at %v covered %d/%d", i, m.Point(i), m.Count(i), m.K()),
				})
			}
		}
		return vs
	}
}

// After gates a check: it reports nothing before the deadline. This turns
// a safety check into an "eventually, by deadline" liveness check.
func After(deadline sim.Time, fn Check) Check {
	return func(now sim.Time) []Violation {
		if now < deadline {
			return nil
		}
		return fn(now)
	}
}

// Budget returns a check asserting the map never holds more than max
// sensors. For any deployment over N sample points with requirement k,
// k·N is a hard theoretical ceiling (every useful placement reduces some
// point's deficit); exceeding the configured budget means the protocol
// is placing without benefit.
func Budget(m *coverage.Map, max int) Check {
	return func(now sim.Time) []Violation {
		if n := m.NumSensors(); n > max {
			return []Violation{{
				Invariant: BudgetName, Time: now, Actor: -1, Subject: -1,
				Detail: fmt.Sprintf("%d sensors deployed, budget %d", n, max),
			}}
		}
		return nil
	}
}

// Accounting returns a check asserting the engine's message books close:
// every send (plus every duplicate) is delivered, dropped, lost, severed
// by a partition, or still in flight. This holds at every instant, not
// just quiescence.
func Accounting(eng *sim.Engine) Check {
	return func(now sim.Time) []Violation {
		st := eng.Totals() // no SentBy copy: this runs on every watchdog tick
		resolved := st.Delivered + st.Dropped + st.Lost + st.PartitionDropped
		if st.Sent+st.Duplicated != resolved+eng.PendingMessages() {
			return []Violation{{
				Invariant: AccountingName, Time: now, Actor: -1, Subject: -1,
				Detail: fmt.Sprintf("sent %d + dup %d != delivered %d + dropped %d + lost %d + cut %d + pending %d",
					st.Sent, st.Duplicated, st.Delivered, st.Dropped, st.Lost,
					st.PartitionDropped, eng.PendingMessages()),
			}}
		}
		return nil
	}
}

// LeaderView is the slice of a protocol node the leader-uniqueness check
// needs (implemented by protocol.Node).
type LeaderView interface {
	ID() int
	Cell() int
	Leader(now sim.Time) int
}

// LeaderAgreement returns a check asserting at most one live leader per
// grid cell: after quiescence every alive node of a cell must name the
// same leader, and that leader must itself be alive. aliveActor maps a
// node's sensor ID to its engine actor id. Run it only after the fault
// horizon plus a detection timeout — during partitions the views
// legitimately diverge (gate with After).
func LeaderAgreement(eng *sim.Engine, nodes []LeaderView, aliveActor func(sensorID int) int) Check {
	return func(now sim.Time) []Violation {
		leaders := map[int]int{}  // cell -> agreed leader
		claimant := map[int]int{} // cell -> node that set the claim
		var vs []Violation
		byCell := map[int][]LeaderView{}
		for _, n := range nodes {
			if eng.Alive(aliveActor(n.ID())) {
				byCell[n.Cell()] = append(byCell[n.Cell()], n)
			}
		}
		cells := make([]int, 0, len(byCell))
		for c := range byCell {
			cells = append(cells, c)
		}
		sort.Ints(cells)
		for _, cell := range cells {
			for _, n := range byCell[cell] {
				l := n.Leader(now)
				if prev, ok := leaders[cell]; !ok {
					leaders[cell] = l
					claimant[cell] = n.ID()
				} else if prev != l {
					vs = append(vs, Violation{
						Invariant: LeaderName, Time: now, Actor: aliveActor(n.ID()), Subject: cell,
						Detail: fmt.Sprintf("cell %d split-brain: node %d elects %d, node %d elects %d",
							cell, claimant[cell], prev, n.ID(), l),
					})
				}
			}
			if l := leaders[cell]; !eng.Alive(aliveActor(l)) {
				vs = append(vs, Violation{
					Invariant: LeaderName, Time: now, Actor: aliveActor(l), Subject: cell,
					Detail: fmt.Sprintf("cell %d elected dead leader %d", cell, l),
				})
			}
		}
		return vs
	}
}
