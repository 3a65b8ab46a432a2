// Package sim is a deterministic discrete-event simulator for sensor
// networks. It provides virtual time, a message-delivery event queue, and
// an actor abstraction for node protocols (heartbeats, failure detection,
// leader election, placement notification) built in internal/protocol.
//
// The round-based algorithms in internal/core answer "where and how many
// sensors"; this engine answers the systems questions the paper's §3.2
// raises about how nodes actually learn things: periodic meta-information
// exchange with period Tc, failure detection by missed heartbeats, and
// the absence of any synchronization requirement.
//
// The hot path is allocation-free: events live in a flat 4-ary min-heap
// (no container/heap interface boxing), callback Contexts come from an
// engine-local free list, and instrumentation is coalesced (see
// flushObs). The engine is single-goroutine by contract — determinism
// comes from the (time, seq) total order on events, never from locks.
package sim

import (
	"fmt"
	"math"
	"strconv"

	"decor/internal/obs"
	"decor/internal/rng"
)

// Time is virtual simulation time in seconds.
type Time float64

// Message is an application payload exchanged between actors.
type Message struct {
	From, To int // actor IDs; To < 0 is invalid
	Kind     string
	Payload  any
}

// Actor is a protocol endpoint attached to the engine.
type Actor interface {
	// OnStart runs when the actor is registered; schedule initial timers
	// here.
	OnStart(ctx *Context)
	// OnMessage handles a delivered message.
	OnMessage(ctx *Context, msg Message)
	// OnTimer handles an expired timer with its registration tag.
	OnTimer(ctx *Context, tag string)
}

// Context gives an actor access to the engine during a callback. It is
// only valid for the duration of that callback: the engine recycles
// Contexts through a free list, so a retained pointer may later speak
// for a different actor. Actors that need the engine elsewhere should
// keep the values they read (ID, Now), not the Context.
type Context struct {
	eng *Engine
	id  int
}

// Now returns the current virtual time.
func (c *Context) Now() Time { return c.eng.now }

// Send enqueues a message for delivery after the engine's latency. Sends
// to dead or unknown actors are silently dropped at delivery time, like
// radio messages to a failed node. Each send counts toward the engine's
// message statistics.
func (c *Context) Send(to int, kind string, payload any) {
	e := c.eng
	e.stats.Sent++
	e.stats.SentBy[c.id]++
	msg := Message{From: c.id, To: to, Kind: kind, Payload: payload}
	jitter := Time(0)
	if e.faults != nil {
		if jitter = e.faults.sendDelay(e.now); jitter > 0 {
			e.stats.Delayed++
		}
		if dupJitter, dup := e.faults.duplicate(e.now); dup {
			e.stats.Duplicated++
			if pp, ok := payload.(Poolable); ok {
				pp.Retain() // the duplicate delivery holds its own reference
			}
			e.schedule(event{at: e.now + e.latency + dupJitter, kind: evMessage, msg: msg})
		}
	}
	e.schedule(event{at: e.now + e.latency + jitter, kind: evMessage, msg: msg})
}

// Poolable is implemented by pooled message payloads. The sender hands
// the payload to Send holding one reference per scheduled delivery (Send
// itself adds one for each duplicate the fault plan injects via Retain);
// the engine calls Release exactly once when a delivery resolves —
// delivered, dropped at a dead actor, lost, or severed by a partition —
// and the payload returns itself to its pool when the count hits zero.
// Receivers must copy what they need during OnMessage and never retain
// the payload: after release the buffer is recycled for a future send
// (internal/protocol's leak-detecting pool tests enforce this contract).
type Poolable interface {
	Retain()
	Release()
}

// releasePayload drops the engine's delivery reference on pooled payloads.
func (e *Engine) releasePayload(p any) {
	if pp, ok := p.(Poolable); ok {
		pp.Release()
	}
}

// SetTimer schedules OnTimer(tag) after d. Timers are not cancellable;
// actors ignore stale tags instead (simpler and sufficient for heartbeat
// protocols).
func (c *Context) SetTimer(d Time, tag string) {
	if d < 0 {
		panic("sim: negative timer duration")
	}
	c.eng.schedule(event{at: c.eng.now + d, kind: evTimer, msg: Message{To: c.id, Kind: tag}})
}

// Engine runs the event loop.
type Engine struct {
	now     Time
	latency Time
	actors  map[int]Actor
	dead    map[int]bool
	queue   eventQueue
	seq     int
	nMsg    int // queued evMessage events: PendingMessages in O(1)
	events  int // cumulative processed events across all Runs
	running bool
	ctxFree []*Context // free list of callback contexts (see Context)
	stats   Stats
	flushed obsFlushed
	// traceLine is the allocation-free trace hook: full formatted lines
	// ("%.9f <event>\n") appended into traceBuf, which is reused across
	// events. See SetTraceLine.
	traceLine func([]byte)
	traceBuf  []byte
	flight    *obs.FlightRecorder

	lossRate float64
	lossRNG  *rng.RNG
	faults   *faultState
}

// engineObs holds every engine's instruments on the process registry,
// resolved once so the event loop never pays a registry lookup.
var engineObs = struct {
	events, sent, delivered, dropped, lost, timers *obs.Counter
	delayed, duplicated, partitionDropped          *obs.Counter
	crashes, restarts                              *obs.Counter
	queueDepth                                     *obs.Gauge
}{
	events:           obs.Default().Counter(obs.SimEvents),
	sent:             obs.Default().Counter(obs.SimSent),
	delivered:        obs.Default().Counter(obs.SimDelivered),
	dropped:          obs.Default().Counter(obs.SimDropped),
	lost:             obs.Default().Counter(obs.SimLost),
	timers:           obs.Default().Counter(obs.SimTimers),
	delayed:          obs.Default().Counter(obs.SimDelayed),
	duplicated:       obs.Default().Counter(obs.SimDuplicated),
	partitionDropped: obs.Default().Counter(obs.SimPartitionDropped),
	crashes:          obs.Default().Counter(obs.SimCrashes),
	restarts:         obs.Default().Counter(obs.SimRestarts),
	queueDepth:       obs.Default().Gauge(obs.SimQueueDepth),
}

// obsFlushed records how much of each Stats field has already been
// pushed to the obs registry, so flushObs can publish deltas instead of
// paying an atomic add per event on the hot path.
type obsFlushed struct {
	events, sent, delivered, dropped, lost, timers int
	delayed, duplicated, partitionDropped          int
	crashes, restarts                              int
}

// obsFlushEvery is the in-Run coalescing interval: the registry lags the
// engine by at most this many events mid-run and is exact whenever Run
// returns (and before it starts), so exported snapshots — the -metrics
// dumps all binaries take at exit — are semantically unchanged.
const obsFlushEvery = 4096

// flushObs publishes the counter deltas accumulated since the previous
// flush and snaps the queue-depth gauge to the live queue length.
func (e *Engine) flushObs() {
	s, f := &e.stats, &e.flushed
	add := func(c *obs.Counter, cur int, prev *int) {
		if d := cur - *prev; d != 0 {
			c.Add(int64(d))
			*prev = cur
		}
	}
	add(engineObs.events, e.events, &f.events)
	add(engineObs.sent, s.Sent, &f.sent)
	add(engineObs.delivered, s.Delivered, &f.delivered)
	add(engineObs.dropped, s.Dropped, &f.dropped)
	add(engineObs.lost, s.Lost, &f.lost)
	add(engineObs.timers, s.Timers, &f.timers)
	add(engineObs.delayed, s.Delayed, &f.delayed)
	add(engineObs.duplicated, s.Duplicated, &f.duplicated)
	add(engineObs.partitionDropped, s.PartitionDropped, &f.partitionDropped)
	add(engineObs.crashes, s.Crashes, &f.crashes)
	add(engineObs.restarts, s.Restarts, &f.restarts)
	engineObs.queueDepth.Set(float64(e.queue.Len()))
}

// Stats aggregates engine-level counters. Every message send resolves to
// exactly one of Delivered, Dropped, Lost, or PartitionDropped, so at
// quiescence Sent + Duplicated equals their sum — the accounting
// invariant internal/sim/invariant checks.
type Stats struct {
	Sent      int // messages sent (incl. dropped at delivery)
	Delivered int
	Dropped   int // sends to dead/unknown actors
	Lost      int // messages lost to simulated radio loss (uniform + burst)
	Timers    int
	SentBy    map[int]int

	// Chaos counters (zero unless a FaultPlan is installed).
	Delayed          int // messages given extra delay jitter
	Duplicated       int // extra deliveries scheduled by duplication
	PartitionDropped int // messages severed by an active partition
	Crashes          int
	Restarts         int
}

// NewEngine creates an engine with the given one-hop delivery latency.
func NewEngine(latency Time) *Engine {
	if latency < 0 {
		panic("sim: negative latency")
	}
	return &Engine{
		latency: latency,
		actors:  map[int]Actor{},
		dead:    map[int]bool{},
		stats:   Stats{SentBy: map[int]int{}},
	}
}

// SetTraceLine installs the allocation-free trace hook: fn receives each
// processed event as one fully formatted line, `%.9f <event>\n`, in a
// buffer the engine REUSES for the next event. Hash it or copy it inside
// fn; never retain it.
func (e *Engine) SetTraceLine(fn func(line []byte)) { e.traceLine = fn }

// tracing reports whether the trace hook is installed.
func (e *Engine) tracing() bool { return e.traceLine != nil }

// lineHeader begins a trace line in the reusable buffer: the event time
// formatted exactly as fmt's %.9f plus the separating space.
func (e *Engine) lineHeader() []byte {
	b := e.traceBuf[:0]
	b = strconv.AppendFloat(b, float64(e.now), 'f', 9, 64)
	return append(b, ' ')
}

// traceMsg emits a "<verb> <kind> <from>-><to>" trace line (deliver, cut,
// burst-lose). Callers check tracing first, as for traceAt and
// traceTimer.
func (e *Engine) traceMsg(verb, kind string, from, to int) {
	b := e.lineHeader()
	b = append(b, verb...)
	b = append(b, ' ')
	b = append(b, kind...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(from), 10)
	b = append(b, '-', '>')
	b = strconv.AppendInt(b, int64(to), 10)
	e.emitLine(b)
}

// traceAt emits a "<verb> @<id>" trace line (crash, restart).
func (e *Engine) traceAt(verb string, id int) {
	b := e.lineHeader()
	b = append(b, verb...)
	b = append(b, ' ', '@')
	b = strconv.AppendInt(b, int64(id), 10)
	e.emitLine(b)
}

// traceTimer emits a "timer <kind> @<id>" trace line.
func (e *Engine) traceTimer(kind string, id int) {
	b := e.lineHeader()
	b = append(b, "timer "...)
	b = append(b, kind...)
	b = append(b, ' ', '@')
	b = strconv.AppendInt(b, int64(id), 10)
	e.emitLine(b)
}

// emitLine ends a trace line and hands it to the hook; the buffer is
// kept for the next line.
func (e *Engine) emitLine(b []byte) {
	b = append(b, '\n')
	e.traceBuf = b
	e.traceLine(b)
}

// SetFlight attaches a flight recorder: every processed event
// (deliveries, drops, losses, crashes, restarts, timers) is recorded as
// a structured FlightEvent at its virtual time. The recorder's ring
// bounds memory; nil detaches. With no recorder attached the event loop
// pays one nil check per event — the disabled path the tracing-overhead
// gate in scripts/benchstat.sh protects.
func (e *Engine) SetFlight(r *obs.FlightRecorder) { e.flight = r }

// SetLossRate makes every message delivery fail independently with
// probability p (deterministically, driven by seed) — the radio packet
// loss the paper's §2.1 mentions ("sensors are also susceptible to
// packet loss and link failures"). Timers are unaffected. p must be in
// [0, 1]; 1 is a total radio blackout, a legitimate chaos setting.
func (e *Engine) SetLossRate(p float64, seed uint64) {
	if p < 0 || p > 1 {
		panic("sim: loss rate must be in [0, 1]")
	}
	e.lossRate = p
	e.lossRNG = rng.New(seed)
}

// Now returns current virtual time.
func (e *Engine) Now() Time { return e.now }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.SentBy = make(map[int]int, len(e.stats.SentBy))
	for k, v := range e.stats.SentBy {
		s.SentBy[k] = v
	}
	return s
}

// Totals returns the counters WITHOUT the per-sender breakdown (SentBy is
// nil): the allocation-free accessor for periodic checks — the invariant
// watchdog calls it every tick, where Stats()'s map copy would dominate
// the run's allocation profile.
func (e *Engine) Totals() Stats {
	s := e.stats
	s.SentBy = nil
	return s
}

// getCtx takes a callback context from the free list (or allocates the
// pool's first few). Contexts are released right after the callback
// returns, so nesting — an actor registering another actor mid-callback —
// sees distinct contexts while steady-state callbacks allocate nothing.
func (e *Engine) getCtx(id int) *Context {
	if n := len(e.ctxFree); n > 0 {
		c := e.ctxFree[n-1]
		e.ctxFree = e.ctxFree[:n-1]
		c.id = id
		return c
	}
	return &Context{eng: e, id: id}
}

func (e *Engine) putCtx(c *Context) { e.ctxFree = append(e.ctxFree, c) }

// Register attaches an actor under id and invokes OnStart. It panics on
// duplicate registration.
func (e *Engine) Register(id int, a Actor) {
	if _, ok := e.actors[id]; ok {
		panic(fmt.Sprintf("sim: duplicate actor %d", id))
	}
	e.actors[id] = a
	delete(e.dead, id)
	ctx := e.getCtx(id)
	a.OnStart(ctx)
	e.putCtx(ctx)
}

// Kill marks an actor dead at the current time: pending deliveries to it
// are dropped and it receives no further callbacks. The paper's node
// failures map to Kill.
func (e *Engine) Kill(id int) { e.dead[id] = true }

// Restart revives a killed (or crashed) actor: its OnStart runs again at
// the current virtual time, re-arming its timer chains. The actor keeps
// its struct state — recovery from a checkpoint. Restarting an actor
// that was never registered, or is already alive, is a no-op.
func (e *Engine) Restart(id int) {
	a, ok := e.actors[id]
	if !ok || !e.dead[id] {
		return
	}
	delete(e.dead, id)
	ctx := e.getCtx(id)
	a.OnStart(ctx)
	e.putCtx(ctx)
}

// Alive reports whether id is registered and not killed.
func (e *Engine) Alive(id int) bool {
	_, ok := e.actors[id]
	return ok && !e.dead[id]
}

// event kinds
const (
	evMessage = iota
	evTimer
	evCrash   // fault-plan control: mark msg.To dead
	evRestart // fault-plan control: revive msg.To and re-run OnStart
)

type event struct {
	at   Time
	kind int
	seq  int
	msg  Message
}

// lessEv is the engine's total event order: time, then schedule sequence.
// seq is unique, so the order has no ties — any correct heap pops the
// same sequence, which is what keeps the overhauled queue byte-identical
// to the seed's container/heap (TestQueueMatchesReferenceHeap).
func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq // FIFO among simultaneous events: determinism
}

// eventQueue is a concrete 4-ary min-heap over a flat []event slice —
// no container/heap interface, so pushes and pops never box events into
// interface values (the seed queue's two allocations per event). The
// slice doubles as the engine-local event pool: popped slots are zeroed
// (so payloads don't pin memory) but the backing array is kept, so a
// steady-state run reuses the same storage for every event. 4-way fanout
// halves the tree depth of the binary heap and keeps sift-down children
// in one or two cache lines.
type eventQueue struct {
	evs []event
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.evs) }

func (q *eventQueue) push(ev event) {
	q.evs = append(q.evs, ev)
	q.siftUp(len(q.evs) - 1)
}

func (q *eventQueue) pop() event {
	evs := q.evs
	top := evs[0]
	n := len(evs) - 1
	evs[0] = evs[n]
	evs[n] = event{} // release the payload reference, keep the slot
	q.evs = evs[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftUp(i int) {
	evs := q.evs
	ev := evs[i]
	for i > 0 {
		p := (i - 1) / 4
		if !lessEv(&ev, &evs[p]) {
			break
		}
		evs[i] = evs[p]
		i = p
	}
	evs[i] = ev
}

func (q *eventQueue) siftDown(i int) {
	evs := q.evs
	n := len(evs)
	ev := evs[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if lessEv(&evs[c], &evs[min]) {
				min = c
			}
		}
		if !lessEv(&evs[min], &ev) {
			break
		}
		evs[i] = evs[min]
		i = min
	}
	evs[i] = ev
}

// reheap restores the heap property over arbitrary contents in O(n) —
// the 4-ary analogue of heap.Init, used after dropTimers filters the
// queue in place.
func (q *eventQueue) reheap() {
	n := len(q.evs)
	if n < 2 {
		return
	}
	for i := (n - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
}

// dropTimers removes every pending timer event for actor id: a crashed
// node loses its volatile timer state, while messages already in flight
// to it stay in the ether (and drop at delivery if it is still down).
// When the filter drops nothing the heap order is untouched, so the
// O(n) rebuild is skipped; message counters are unaffected either way
// (only evTimer events are removed).
func (e *Engine) dropTimers(id int) {
	evs := e.queue.evs
	kept := evs[:0]
	for i := range evs {
		if evs[i].kind == evTimer && evs[i].msg.To == id {
			continue
		}
		kept = append(kept, evs[i])
	}
	if len(kept) == len(evs) {
		return
	}
	for i := len(kept); i < len(evs); i++ {
		evs[i] = event{} // zero dropped tail slots
	}
	e.queue.evs = kept
	e.queue.reheap()
	if !e.running {
		engineObs.queueDepth.Set(float64(e.queue.Len()))
	}
}

func (e *Engine) schedule(ev event) {
	ev.seq = e.seq
	e.seq++
	if ev.kind == evMessage {
		e.nMsg++
	}
	e.queue.push(ev)
	if !e.running {
		// Cold path — Register/SetFaults before (or between) Runs keep the
		// gauge exact; inside Run it is coalesced through flushObs.
		engineObs.queueDepth.Set(float64(e.queue.Len()))
	}
}

// Run processes events until the queue is empty or virtual time exceeds
// until. It returns the number of events processed.
func (e *Engine) Run(until Time) int {
	processed := 0
	e.running = true
	for e.queue.Len() > 0 {
		if e.queue.evs[0].at > until {
			break
		}
		ev := e.queue.pop()
		if ev.kind == evMessage {
			e.nMsg--
		}
		e.events++
		e.now = ev.at
		processed++
		if processed%obsFlushEvery == 0 {
			e.flushObs()
		}
		target := ev.msg.To
		if ev.kind == evCrash {
			e.dead[target] = true
			e.dropTimers(target)
			e.stats.Crashes++
			if e.tracing() {
				e.traceAt("crash", target)
			}
			e.flight.Record(float64(e.now), "crash", target, "")
			continue
		}
		if ev.kind == evRestart {
			if _, ok := e.actors[target]; ok && e.dead[target] {
				e.stats.Restarts++
				if e.tracing() {
					e.traceAt("restart", target)
				}
				e.flight.Record(float64(e.now), "restart", target, "")
				e.Restart(target)
			}
			continue
		}
		actor, ok := e.actors[target]
		if !ok || e.dead[target] {
			if ev.kind == evMessage {
				e.stats.Dropped++
				if e.flight != nil {
					e.flight.RecordMsg(float64(e.now), "drop", target, ev.msg.Kind, ev.msg.From, target, true)
				}
				e.releasePayload(ev.msg.Payload)
			}
			continue
		}
		switch ev.kind {
		case evMessage:
			if e.faults != nil && e.faults.linkCut(e.now, ev.msg.From, target) {
				e.stats.PartitionDropped++
				if e.tracing() {
					e.traceMsg("cut", ev.msg.Kind, ev.msg.From, target)
				}
				if e.flight != nil {
					e.flight.RecordMsg(float64(e.now), "cut", target, ev.msg.Kind, ev.msg.From, target, false)
				}
				e.releasePayload(ev.msg.Payload)
				continue
			}
			if e.lossRate > 0 && e.lossRNG.Bool(e.lossRate) {
				e.stats.Lost++
				if e.flight != nil {
					e.flight.RecordMsg(float64(e.now), "lose", target, ev.msg.Kind, ev.msg.From, target, false)
				}
				e.releasePayload(ev.msg.Payload)
				continue
			}
			if e.faults != nil && e.faults.burstLost(e.now) {
				e.stats.Lost++
				if e.tracing() {
					e.traceMsg("burst-lose", ev.msg.Kind, ev.msg.From, target)
				}
				if e.flight != nil {
					e.flight.RecordMsg(float64(e.now), "burst-lose", target, ev.msg.Kind, ev.msg.From, target, false)
				}
				e.releasePayload(ev.msg.Payload)
				continue
			}
			e.stats.Delivered++
			if e.tracing() {
				e.traceMsg("deliver", ev.msg.Kind, ev.msg.From, target)
			}
			if e.flight != nil {
				e.flight.RecordMsg(float64(e.now), "deliver", target, ev.msg.Kind, ev.msg.From, target, false)
			}
			ctx := e.getCtx(target)
			actor.OnMessage(ctx, ev.msg)
			e.putCtx(ctx)
			e.releasePayload(ev.msg.Payload)
		case evTimer:
			e.stats.Timers++
			if e.tracing() {
				e.traceTimer(ev.msg.Kind, target)
			}
			if e.flight != nil {
				e.flight.Record(float64(e.now), "timer", target, ev.msg.Kind)
			}
			ctx := e.getCtx(target)
			actor.OnTimer(ctx, ev.msg.Kind)
			e.putCtx(ctx)
		}
	}
	e.running = false
	e.flushObs()
	if e.queue.Len() == 0 && until != Inf && e.now < until {
		e.now = until
	}
	return processed
}

// PendingMessages returns the number of queued message-delivery events
// (timers and fault-plan control events excluded), maintained as a
// running counter — O(1), no queue scan. It closes the
// message-accounting books mid-run: Sent + Duplicated always equals
// Delivered + Dropped + Lost + PartitionDropped + PendingMessages.
func (e *Engine) PendingMessages() int { return e.nMsg }

// Inf is a convenience for Run(sim.Inf): process everything.
const Inf = Time(math.MaxFloat64)
