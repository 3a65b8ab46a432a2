package sim

import (
	"fmt"
	"sort"

	"decor/internal/rng"
)

// This file is the chaos/fault-injection layer: a declarative, seeded
// FaultPlan the engine executes deterministically alongside the normal
// event stream. It generalizes the i.i.d. uniform loss of SetLossRate to
// the failure modes the paper's §2.1 gestures at ("sensors are also
// susceptible to packet loss and link failures") and the ones any
// Jepsen-style schedule needs: per-message delay jitter (which yields
// reordering for free, since independently delayed messages overtake each
// other), duplication, bursty Gilbert-Elliott loss, node crash/restart at
// arbitrary virtual times, and bidirectional link partitions between
// actor sets. Every random draw comes from seeded PCG streams consumed in
// deterministic event order, so identical plans replay byte-identically.

// GilbertElliott is the classic two-state burst-loss channel: the channel
// flips between a good and a bad state with the given per-message
// transition probabilities, and drops a message with the loss probability
// of its current state. High LossBad with small PBadToGood produces the
// correlated loss bursts that defeat protocols tuned only against
// uniform loss.
type GilbertElliott struct {
	PGoodToBad float64 // P(good → bad) evaluated per delivery attempt
	PBadToGood float64 // P(bad → good) evaluated per delivery attempt
	LossGood   float64 // loss probability while in the good state
	LossBad    float64 // loss probability while in the bad state
}

func (g GilbertElliott) validate() error {
	for _, p := range []float64{g.PGoodToBad, g.PBadToGood, g.LossGood, g.LossBad} {
		if p < 0 || p > 1 {
			return fmt.Errorf("sim: Gilbert-Elliott probability %v outside [0, 1]", p)
		}
	}
	return nil
}

// Crash schedules one node crash, optionally followed by a restart. A
// crashed actor receives no callbacks: messages to it drop (counted as
// Dropped, like radio sends to a dead node) and its timer chains break —
// volatile state a real node would lose. RestartAt <= At means the crash
// is permanent. On restart the actor's OnStart runs again, re-arming its
// timers; actors keep their struct state, modelling recovery from a
// checkpoint.
type Crash struct {
	Actor     int
	At        Time
	RestartAt Time // <= At: permanent crash
}

// Partition cuts every link between actor set A and actor set B in both
// directions during [From, Until). Messages crossing the cut are counted
// in Stats.PartitionDropped, not Lost: the link is down, not lossy.
type Partition struct {
	From, Until Time
	A, B        []int
}

// FaultPlan declares a full chaos schedule. The zero value is a no-op.
// The probabilistic mechanisms (delay, duplication, burst loss) are
// active only while virtual time is below Until, giving every run a
// clean convergence window after the fault horizon; Until <= 0 means
// they stay active forever (such a plan is not Bounded). Crashes and
// partitions carry their own explicit times.
type FaultPlan struct {
	Seed uint64

	// DelayProb delays each message send independently by an extra
	// uniform amount in (0, DelayMax]; messages with different jitter
	// overtake each other, so this is also the reordering mechanism.
	DelayProb float64
	DelayMax  Time

	// DupProb delivers each message a second time (with fresh delay
	// jitter), modelling link-layer retransmit duplicates.
	DupProb float64

	// Burst, when non-nil, runs a Gilbert-Elliott channel over every
	// delivery attempt, in addition to any uniform SetLossRate.
	Burst *GilbertElliott

	// Until is the probabilistic-fault horizon (see above).
	Until Time

	Crashes    []Crash
	Partitions []Partition
}

// Validate checks the plan's fields are well-formed (probabilities in
// range, non-negative times, partition windows ordered). It does not
// bound severity — see Bounded.
func (p FaultPlan) Validate() error {
	for _, pr := range []float64{p.DelayProb, p.DupProb} {
		if pr < 0 || pr > 1 {
			return fmt.Errorf("sim: fault probability %v outside [0, 1]", pr)
		}
	}
	if p.DelayMax < 0 {
		return fmt.Errorf("sim: negative DelayMax %v", p.DelayMax)
	}
	if p.DelayProb > 0 && p.DelayMax == 0 {
		return fmt.Errorf("sim: DelayProb %v with zero DelayMax", p.DelayProb)
	}
	if p.Burst != nil {
		if err := p.Burst.validate(); err != nil {
			return err
		}
	}
	for _, c := range p.Crashes {
		if c.At < 0 {
			return fmt.Errorf("sim: crash of %d at negative time %v", c.Actor, c.At)
		}
	}
	for _, pt := range p.Partitions {
		if pt.From < 0 || pt.Until <= pt.From {
			return fmt.Errorf("sim: partition window [%v, %v) invalid", pt.From, pt.Until)
		}
		if len(pt.A) == 0 || len(pt.B) == 0 {
			return fmt.Errorf("sim: partition with empty side")
		}
	}
	return nil
}

// Bounded reports whether the plan sits inside the documented severity
// bound under which the chaos property suite asserts convergence
// (DESIGN.md §10): every probabilistic mechanism has a finite horizon
// (Until > 0 when any is enabled), the burst channel always has an
// escape path out of the bad state (PBadToGood >= 0.05) and never drops
// deterministically forever (LossBad <= 0.95), and every partition heals
// within the horizon. Crashes may be permanent: the protocols under test
// are required to survive dead nodes, only not an eternally flapping
// channel.
func (p FaultPlan) Bounded() bool {
	if p.Validate() != nil {
		return false
	}
	probabilistic := p.DelayProb > 0 || p.DupProb > 0 || p.Burst != nil
	if probabilistic && p.Until <= 0 {
		return false
	}
	if p.Burst != nil && (p.Burst.PBadToGood < 0.05 || p.Burst.LossBad > 0.95) {
		return false
	}
	for _, pt := range p.Partitions {
		if p.Until > 0 && pt.Until > p.Until {
			return false
		}
	}
	return true
}

// faultState is the engine-side runtime of an installed plan: one seeded
// stream per mechanism (so enabling one mechanism never perturbs the
// draws of another), plus the Gilbert-Elliott channel state.
type faultState struct {
	plan     FaultPlan
	delayRNG *rng.RNG
	dupRNG   *rng.RNG
	geRNG    *rng.RNG
	geBad    bool
	parts    []partitionSets
}

type partitionSets struct {
	from, until Time
	a, b        map[int]bool
}

// SetFaults installs a fault plan on the engine. It panics on an invalid
// plan (same contract as SetLossRate) and must be called before Run;
// crash and restart control events are scheduled immediately at their
// virtual times. Calling it twice replaces the probabilistic mechanisms
// but re-schedules the new plan's crashes, so install one plan per run.
func (e *Engine) SetFaults(plan FaultPlan) {
	if err := plan.Validate(); err != nil {
		panic(err.Error())
	}
	f := &faultState{
		plan:     plan,
		delayRNG: rng.New(plan.Seed ^ 0xd31a7),
		dupRNG:   rng.New(plan.Seed ^ 0xd0b1e),
		geRNG:    rng.New(plan.Seed ^ 0xb0457),
	}
	for _, pt := range plan.Partitions {
		ps := partitionSets{from: pt.From, until: pt.Until, a: map[int]bool{}, b: map[int]bool{}}
		for _, id := range pt.A {
			ps.a[id] = true
		}
		for _, id := range pt.B {
			ps.b[id] = true
		}
		f.parts = append(f.parts, ps)
	}
	e.faults = f
	// Deterministic control-event order: sort by (time, actor) before
	// scheduling so plans listing crashes in any order replay identically.
	crashes := append([]Crash(nil), plan.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].At != crashes[j].At {
			return crashes[i].At < crashes[j].At
		}
		return crashes[i].Actor < crashes[j].Actor
	})
	for _, c := range crashes {
		at := c.At
		if at < e.now {
			at = e.now
		}
		e.schedule(event{at: at, kind: evCrash, msg: Message{To: c.Actor}})
		if c.RestartAt > c.At {
			e.schedule(event{at: c.RestartAt, kind: evRestart, msg: Message{To: c.Actor}})
		}
	}
}

// active reports whether the probabilistic mechanisms apply at now.
func (f *faultState) active(now Time) bool {
	return f.plan.Until <= 0 || now < f.plan.Until
}

// sendDelay returns the extra latency jitter for one message send (0 if
// the delay mechanism does not fire).
func (f *faultState) sendDelay(now Time) Time {
	if f.plan.DelayProb <= 0 || !f.active(now) {
		return 0
	}
	if !f.delayRNG.Bool(f.plan.DelayProb) {
		return 0
	}
	return Time(f.delayRNG.Float64()) * f.plan.DelayMax
}

// duplicate reports whether this send is delivered twice, and the jitter
// of the duplicate copy.
func (f *faultState) duplicate(now Time) (Time, bool) {
	if f.plan.DupProb <= 0 || !f.active(now) {
		return 0, false
	}
	if !f.dupRNG.Bool(f.plan.DupProb) {
		return 0, false
	}
	return Time(f.dupRNG.Float64()) * f.plan.DelayMax, true
}

// burstLost steps the Gilbert-Elliott channel for one delivery attempt
// and reports whether the message is lost to a burst.
func (f *faultState) burstLost(now Time) bool {
	g := f.plan.Burst
	if g == nil || !f.active(now) {
		return false
	}
	if f.geBad {
		if f.geRNG.Bool(g.PBadToGood) {
			f.geBad = false
		}
	} else if f.geRNG.Bool(g.PGoodToBad) {
		f.geBad = true
	}
	loss := g.LossGood
	if f.geBad {
		loss = g.LossBad
	}
	return f.geRNG.Bool(loss)
}

// linkCut reports whether an active partition severs from→to at now.
func (f *faultState) linkCut(now Time, from, to int) bool {
	for _, ps := range f.parts {
		if now < ps.from || now >= ps.until {
			continue
		}
		if (ps.a[from] && ps.b[to]) || (ps.b[from] && ps.a[to]) {
			return true
		}
	}
	return false
}
