package sim

import (
	"fmt"
	"reflect"
	"sort"

	"decor/internal/rng"
	"decor/internal/snap"
)

// Engine state snapshots. EncodeState serializes everything that
// determines the engine's future behaviour — virtual clock, sequence
// counter, statistics, dead set, loss and fault RNG streams mid-draw,
// and the event queue in raw heap-array order (the heap is rebuilt as
// the same array, so every future pop is identical) — and RestoreState
// rebuilds it on a fresh engine. Actors are NOT part of the engine
// snapshot: they are protocol state, serialized by their own packages
// and re-attached with RegisterRestored, which skips OnStart because the
// actors' timers are already in the restored queue.
//
// Determinism is by construction: the snapshot captures the exact
// (time, seq) order and every RNG mid-stream, so a restored run replays
// the remaining schedule byte-identically — the chaos checkpoint parity
// suite proves it against SHA-256 trace hashes.

// PayloadCodec serializes one concrete message-payload type for queue
// snapshots. Encode writes the payload body (the type code is written by
// the engine); Decode reads the same body and returns the payload to
// deliver. Decode may return a different concrete type than was encoded
// as long as receivers treat the two identically (internal/protocol
// decodes pooled heartbeat boxes to plain values, for example).
type PayloadCodec struct {
	Encode func(w *snap.Writer, payload any)
	Decode func(r *snap.Reader) any
}

// nilPayloadCode marks a nil payload in the queue encoding.
const nilPayloadCode byte = 0

var (
	payloadCodecs = map[byte]PayloadCodec{}
	payloadCodes  = map[reflect.Type]byte{}
)

// RegisterPayloadCodec wires a payload type into queue snapshots under a
// stable type code. Call from package init; it panics on a duplicate
// code or type and on the reserved code 0 (wiring errors, not data
// errors).
func RegisterPayloadCodec(code byte, sample any, c PayloadCodec) {
	if code == nilPayloadCode {
		panic("sim: payload code 0 is reserved for nil")
	}
	if _, ok := payloadCodecs[code]; ok {
		panic(fmt.Sprintf("sim: duplicate payload code %d", code))
	}
	t := reflect.TypeOf(sample)
	if _, ok := payloadCodes[t]; ok {
		panic(fmt.Sprintf("sim: duplicate payload codec for %v", t))
	}
	payloadCodecs[code] = c
	payloadCodes[t] = code
}

// NextEventTime returns the virtual time of the earliest queued event,
// if any. Checkpoint drivers use it to slice Run into exact-replay
// chunks without triggering Run's empty-queue clock jump.
func (e *Engine) NextEventTime() (Time, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue.evs[0].at, true
}

// RegisterRestored attaches an actor without running OnStart: its timers
// are already in the restored queue and its state comes from its own
// package's snapshot. It panics on duplicate registration and, unlike
// Register, leaves the dead set alone — a restored actor may well be
// restored dead, awaiting an evRestart already in the queue.
func (e *Engine) RegisterRestored(id int, a Actor) {
	if _, ok := e.actors[id]; ok {
		panic(fmt.Sprintf("sim: duplicate actor %d", id))
	}
	e.actors[id] = a
}

// EncodeState appends the engine's full dynamic state to w. It fails
// only when a queued payload has no registered codec.
func (e *Engine) EncodeState(w *snap.Writer) error {
	w.F64(float64(e.now))
	w.F64(float64(e.latency))
	w.Int(e.seq)
	w.Int(e.nMsg)
	w.Int(e.events)

	// Stats, with the per-sender breakdown in ascending actor order.
	s := &e.stats
	for _, v := range []int{s.Sent, s.Delivered, s.Dropped, s.Lost, s.Timers,
		s.Delayed, s.Duplicated, s.PartitionDropped, s.Crashes, s.Restarts} {
		w.Int(v)
	}
	senders := make([]int, 0, len(s.SentBy))
	for id := range s.SentBy {
		senders = append(senders, id)
	}
	sort.Ints(senders)
	w.Int(len(senders))
	for _, id := range senders {
		w.Int(id)
		w.Int(s.SentBy[id])
	}

	// Dead set, ascending.
	dead := make([]int, 0, len(e.dead))
	for id := range e.dead {
		dead = append(dead, id)
	}
	sort.Ints(dead)
	w.Int(len(dead))
	for _, id := range dead {
		w.Int(id)
	}

	// Uniform loss channel.
	w.F64(e.lossRate)
	w.Bool(e.lossRNG != nil)
	if e.lossRNG != nil {
		encodeRNG(w, e.lossRNG)
	}

	// Fault plan plus its runtime (RNG streams mid-draw, burst channel
	// state). Partitions are rebuilt from the plan on restore — their
	// sets are static for the engine's lifetime.
	w.Bool(e.faults != nil)
	if f := e.faults; f != nil {
		encodePlan(w, f.plan)
		encodeRNG(w, f.delayRNG)
		encodeRNG(w, f.dupRNG)
		encodeRNG(w, f.geRNG)
		w.Bool(f.geBad)
	}

	// The queue in raw heap-array order: restoring the same array yields
	// the same heap, hence the same pop sequence.
	w.Int(e.queue.Len())
	for i := range e.queue.evs {
		ev := &e.queue.evs[i]
		w.F64(float64(ev.at))
		w.Int(ev.kind)
		w.Int(ev.seq)
		w.Int(ev.msg.From)
		w.Int(ev.msg.To)
		w.Str(ev.msg.Kind)
		if ev.msg.Payload == nil {
			w.Byte(nilPayloadCode)
			continue
		}
		code, ok := payloadCodes[reflect.TypeOf(ev.msg.Payload)]
		if !ok {
			return fmt.Errorf("sim: no payload codec for %T", ev.msg.Payload)
		}
		w.Byte(code)
		payloadCodecs[code].Encode(w, ev.msg.Payload)
	}
	return nil
}

// RestoreState rebuilds the engine's dynamic state from r. Call it on a
// fresh engine before re-attaching actors with RegisterRestored; any
// events scheduled earlier (e.g. by SetFaults) are discarded in favour
// of the snapshot's queue.
func (e *Engine) RestoreState(r *snap.Reader) error {
	e.now = Time(r.F64())
	e.latency = Time(r.F64())
	e.seq = r.Int()
	e.nMsg = r.Int()
	e.events = r.Int()

	s := &e.stats
	for _, p := range []*int{&s.Sent, &s.Delivered, &s.Dropped, &s.Lost, &s.Timers,
		&s.Delayed, &s.Duplicated, &s.PartitionDropped, &s.Crashes, &s.Restarts} {
		*p = r.Int()
	}
	s.SentBy = map[int]int{}
	for n := r.CollectionLen(); n > 0; n-- {
		id := r.Int()
		s.SentBy[id] = r.Int()
	}

	e.dead = map[int]bool{}
	for n := r.CollectionLen(); n > 0; n-- {
		e.dead[r.Int()] = true
	}

	e.lossRate = r.F64()
	e.lossRNG = nil
	if r.Bool() {
		e.lossRNG = decodeRNG(r)
	}

	e.faults = nil
	if r.Bool() {
		plan := decodePlan(r)
		f := &faultState{
			plan:     plan,
			delayRNG: decodeRNG(r),
			dupRNG:   decodeRNG(r),
			geRNG:    decodeRNG(r),
		}
		f.geBad = r.Bool()
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
	}

	e.queue.evs = e.queue.evs[:0]
	nMsgSeen := 0
	for n := r.CollectionLen(); n > 0; n-- {
		var ev event
		ev.at = Time(r.F64())
		ev.kind = r.Int()
		ev.seq = r.Int()
		ev.msg.From = r.Int()
		ev.msg.To = r.Int()
		ev.msg.Kind = r.Str()
		if r.Err() != nil {
			break
		}
		if ev.kind < evMessage || ev.kind > evRestart {
			return fmt.Errorf("%w: unknown event kind %d", snap.ErrMalformed, ev.kind)
		}
		if code := r.Byte(); code != nilPayloadCode {
			codec, ok := payloadCodecs[code]
			if !ok {
				return fmt.Errorf("%w: unknown payload code %d", snap.ErrMalformed, code)
			}
			ev.msg.Payload = codec.Decode(r)
		}
		if ev.kind == evMessage {
			nMsgSeen++
		}
		e.queue.evs = append(e.queue.evs, ev)
	}
	if err := r.Err(); err != nil {
		return err
	}
	if nMsgSeen != e.nMsg {
		return fmt.Errorf("%w: queued message count %d does not match recorded %d",
			snap.ErrMalformed, nMsgSeen, e.nMsg)
	}
	// The array was written in heap order, so the heap property already
	// holds; reheap is a cheap O(n) belt-and-braces pass that keeps the
	// engine correct even for hand-built snapshots.
	e.queue.reheap()

	// Start metric deltas from here: restored totals belong to the run
	// that took the snapshot, not to this process's registry.
	e.flushed = obsFlushed{
		events: e.events, sent: s.Sent, delivered: s.Delivered, dropped: s.Dropped,
		lost: s.Lost, timers: s.Timers, delayed: s.Delayed, duplicated: s.Duplicated,
		partitionDropped: s.PartitionDropped, crashes: s.Crashes, restarts: s.Restarts,
	}
	engineObs.queueDepth.Set(float64(e.queue.Len()))
	return nil
}

func encodeRNG(w *snap.Writer, r *rng.RNG) {
	hi, lo := r.State()
	w.U64(hi)
	w.U64(lo)
}

func decodeRNG(r *snap.Reader) *rng.RNG {
	hi := r.U64()
	return rng.FromState(hi, r.U64())
}

func encodePlan(w *snap.Writer, p FaultPlan) {
	w.U64(p.Seed)
	w.F64(p.DelayProb)
	w.F64(float64(p.DelayMax))
	w.F64(p.DupProb)
	w.F64(float64(p.Until))
	w.Bool(p.Burst != nil)
	if g := p.Burst; g != nil {
		w.F64(g.PGoodToBad)
		w.F64(g.PBadToGood)
		w.F64(g.LossGood)
		w.F64(g.LossBad)
	}
	w.Int(len(p.Crashes))
	for _, c := range p.Crashes {
		w.Int(c.Actor)
		w.F64(float64(c.At))
		w.F64(float64(c.RestartAt))
	}
	w.Int(len(p.Partitions))
	for _, pt := range p.Partitions {
		w.F64(float64(pt.From))
		w.F64(float64(pt.Until))
		w.Int(len(pt.A))
		for _, id := range pt.A {
			w.Int(id)
		}
		w.Int(len(pt.B))
		for _, id := range pt.B {
			w.Int(id)
		}
	}
}

func decodePlan(r *snap.Reader) FaultPlan {
	var p FaultPlan
	p.Seed = r.U64()
	p.DelayProb = r.F64()
	p.DelayMax = Time(r.F64())
	p.DupProb = r.F64()
	p.Until = Time(r.F64())
	if r.Bool() {
		g := &GilbertElliott{}
		g.PGoodToBad = r.F64()
		g.PBadToGood = r.F64()
		g.LossGood = r.F64()
		g.LossBad = r.F64()
		p.Burst = g
	}
	for n := r.CollectionLen(); n > 0; n-- {
		var c Crash
		c.Actor = r.Int()
		c.At = Time(r.F64())
		c.RestartAt = Time(r.F64())
		p.Crashes = append(p.Crashes, c)
	}
	for n := r.CollectionLen(); n > 0; n-- {
		var pt Partition
		pt.From = Time(r.F64())
		pt.Until = Time(r.F64())
		for a := r.CollectionLen(); a > 0; a-- {
			pt.A = append(pt.A, r.Int())
		}
		for b := r.CollectionLen(); b > 0; b-- {
			pt.B = append(pt.B, r.Int())
		}
		p.Partitions = append(p.Partitions, pt)
	}
	return p
}
