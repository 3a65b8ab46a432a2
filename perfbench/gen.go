package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"decor/internal/chaos"
	"decor/internal/sim"
)

// Workload generation. Every request body is a pure function of the
// workload seed, built before the measured phase starts; field-events
// also takes the seq-0 sensor totals its sessions report at set-up,
// which its fixed fields determine.

// methods are the paper's six placement methods, in rotation order.
var methods = []string{"grid-small", "grid-big", "voronoi-small", "voronoi-big", "centralized", "random"}

// Paper-scale field shared by repair-cached and plan-cold (§4: a 100×100
// field, 2000 Halton points, k=3, rs=4, 200 scattered initial sensors).
const (
	paperSide    = 100
	paperK       = 3
	paperRs      = 4
	paperPoints  = 2000
	paperScatter = 200
)

// Resident fields for field-events: 20000 points is the service's
// default per-request point cap.
const (
	fieldSide    = 200
	fieldPoints  = 20000
	fieldScatter = 800
)

const (
	repairBodies  = 8   // distinct /v1/repair bodies cycled by repair-cached
	repairSensors = 900 // explicit sensors per repair body
	tenant        = "perfbench"
)

// op is one generated request.
type op struct {
	id    int    // position in the workload's op list; the same for every run of a seed
	path  string // request path (always POST)
	body  []byte
	want  string // expected X-Decor-Cache: "hit", "miss", or "" for session events
	field int    // session index of a field-events request, -1 otherwise
}

// workload is one generated traffic mix: set-up requests, then one
// closed-loop op list per connection.
type workload struct {
	name      string
	conns     int
	setupReps int    // server launches per run; setup_s is their median
	setup     []op   // issued in order on one connection before the measured phase
	ops       [][]op // per connection, issued in order
	// window is the number of leading ops per connection that every run
	// completes; the quality metrics are means over exactly these ops,
	// so they repeat for a seed whatever the run's speed.
	window int
	seed   uint64 // field-events draws its event schedules from it
}

// splitmix is the SplitMix64 generator: tiny, and its output is fixed
// by its definition, so inputs never drift with a library version.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// seed returns a request seed below 2^53, so it survives any JSON reader.
func (s *splitmix) seed() uint64 { return s.next() >> 11 }

func stream(seed, salt uint64) *splitmix {
	s := splitmix(seed ^ salt)
	s.next()
	return &s
}

type sensorSpec struct {
	ID int     `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

type planBody struct {
	FieldID   string       `json:"field_id,omitempty"`
	FieldSide float64      `json:"field_side"`
	K         int          `json:"k"`
	Rs        float64      `json:"rs"`
	NumPoints int          `json:"num_points"`
	Generator string       `json:"generator"`
	Seed      uint64       `json:"seed"`
	Sensors   []sensorSpec `json:"sensors,omitempty"`
	Scatter   int          `json:"scatter,omitempty"`
	Method    string       `json:"method"`
	Failed    []int        `json:"failed,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of finite numbers are marshalled
	}
	return b
}

// Op lists hold this many requests per second of run: several times the
// rates measured when the benchmark was written, so a run does not
// exhaust its list.
const (
	repairRate = 2500
	planRate   = 800
)

// generate builds a workload's set-up and op lists. field-events op
// lists need the sessions' seq-0 totals and come from fieldEvents.
func generate(name string, seed uint64, seconds int) (*workload, error) {
	switch name {
	case "repair-cached":
		return genRepairCached(seed, seconds), nil
	case "plan-cold":
		return genPlanCold(seed, seconds), nil
	case "field-events":
		return genFieldSetup(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// genRepairCached: one connection cycling over 8 /v1/repair bodies that
// set-up has already planned, so every measured request is a cache hit.
// Each body is an explicit 900-sensor deployment (uniformly scattered,
// IDs 0..899) plus one chaos failure event. The bodies rotate over the
// five methods whose repair cost is steady across seeds (see inQuality
// for the random method's).
func genRepairCached(seed uint64, seconds int) *workload {
	w := &workload{name: "repair-cached", conns: 1, setupReps: 5, window: repairBodies}
	ids := make([]int, repairSensors)
	for i := range ids {
		ids[i] = i
	}
	bodies := make([][]byte, repairBodies)
	for i := range bodies {
		r := stream(seed, 0x5e9a1000+uint64(i))
		b := planBody{
			FieldSide: paperSide, K: paperK, Rs: paperRs, NumPoints: paperPoints,
			Generator: "halton", Seed: r.seed(), Method: methods[i%(len(methods)-1)],
			Sensors: make([]sensorSpec, repairSensors),
		}
		for j := range b.Sensors {
			b.Sensors[j] = sensorSpec{ID: j, X: r.float() * paperSide, Y: r.float() * paperSide}
		}
		b.Failed = chaos.TrafficFromPlan(sim.FaultPlan{Seed: r.next()}, ids, 1)[0].IDs
		bodies[i] = mustJSON(b)
		w.setup = append(w.setup, op{id: i, path: "/v1/repair", body: bodies[i], want: "miss", field: -1})
	}
	list := make([]op, repairRate*seconds)
	for i := range list {
		list[i] = op{id: i, path: "/v1/repair", body: bodies[i%repairBodies], want: "hit", field: -1}
	}
	w.ops = [][]op{list}
	return w
}

// planWarmup is how many plans plan-cold's set-up issues, four per
// method. Without them its set-up was only process start and /healthz,
// ~5 ms, which the host's scheduling moved by up to 70% between sets of
// runs; planning dominates this set-up, as it does the measured phase.
const planWarmup = 24

// genPlanCold: two connections, each request a distinct paper-scale
// /v1/plan (fresh seed), rotating over the six methods, so every
// request is a cache miss planned from scratch. Set-up plans
// planWarmup more, with seeds of their own.
func genPlanCold(seed uint64, seconds int) *workload {
	w := &workload{name: "plan-cold", conns: 2, setupReps: 7, window: 150}
	body := func(seed uint64, i int) []byte {
		return mustJSON(planBody{
			FieldSide: paperSide, K: paperK, Rs: paperRs, NumPoints: paperPoints,
			Generator: "halton", Seed: seed, Scatter: paperScatter,
			Method: methods[i%len(methods)],
		})
	}
	warm := stream(seed, 0x3a7a).seed()
	for i := 0; i < planWarmup; i++ {
		w.setup = append(w.setup, op{id: i, path: "/v1/plan", body: body(warm+uint64(i), i), want: "miss", field: -1})
	}
	base := stream(seed, 0xc01d).seed()
	w.ops = make([][]op, w.conns)
	for i := 0; i < planRate*seconds; i++ {
		c := i % w.conns
		w.ops[c] = append(w.ops[c], op{id: i, path: "/v1/plan", body: body(base+uint64(i), i), want: "miss", field: -1})
	}
	return w
}

// inQuality reports whether an op's plan counts toward the quality
// metrics. A resident field planned by the random method is so dense
// that most failures need no repair, and a rare one needs ~1500 random
// sensors to refill a small hole (seed 1: one event placed 1575, seed 2:
// none in 66 events), so its deltas would swing a run's mean by 3×
// between seeds; they are served and checked but not averaged.
func inQuality(o op) bool { return o.field < 0 || methods[o.field] != "random" }

// fieldID names session i. The names do not depend on the seed, so the
// sessions land on the same shards in every run. internal/session pins
// a session to shard FNV-1a(tenant, id) mod shards, and with decor-serve's
// two shards on a 2-CPU host that is the parity of the key's odd bytes:
// these names put every field but centralized on one shard, so most
// events queue behind each other's repairs, Voronoi ones included.
func fieldID(i int) string { return fmt.Sprintf("f%d-%s", i, methods[i]) }

// fieldsSeed fixes field-events' six fields: they are the deployment
// under test, and --seed draws the failure traffic on them. Drawing the
// fields from --seed too moved set-up time, peak RSS and per-event cost
// by up to a quarter between seeds, more than a run's noise.
const fieldsSeed = 1

// genFieldSetup: six resident sessions, one per method, each a 200×200
// field with 20000 points and 800 scattered sensors, driven by one
// connection. With two connections (three sessions each) the events
// queued behind each other's repairs on the shared shard, and the
// median fell in the gap between the events that waited and those that
// did not (p45 5.5 ms, p50 21 ms): it moved 18–25% between runs, against
// 8% with one connection at the same throughput.
func genFieldSetup(seed uint64) *workload {
	w := &workload{name: "field-events", conns: 1, setupReps: 3, window: 600, seed: seed}
	r := stream(fieldsSeed, 0xf1e1d)
	for i, m := range methods {
		s := r.seed()
		b := planBody{
			FieldID: fieldID(i), FieldSide: fieldSide, K: paperK, Rs: paperRs,
			NumPoints: fieldPoints, Generator: "halton", Seed: s, Scatter: fieldScatter, Method: m,
		}
		w.setup = append(w.setup, op{id: i, path: "/v1/fields", body: mustJSON(b), field: i})
	}
	return w
}

// fieldEvents fills w's op list from each session's seq-0 sensor total:
// a chaos.TrafficFromPlan schedule of 1–3-sensor failure events over the
// session's initial population (at most a quarter of it dies). The list
// interleaves the sessions' schedules round-robin, so each session's
// events stay in order, and stops at the first schedule's end, so the
// event mix never changes within a run.
func fieldEvents(w *workload, totals []int) {
	scheds := make([][]chaos.FailureEvent, len(totals))
	for i, t := range totals {
		ids := make([]int, t)
		for j := range ids {
			ids[j] = j
		}
		scheds[i] = chaos.TrafficFromPlan(sim.FaultPlan{Seed: stream(w.seed, 0xe7e47+uint64(i)).next()}, ids, 1<<20)
	}
	rounds := math.MaxInt
	for _, s := range scheds {
		rounds = min(rounds, len(s))
	}
	var list []op
	for round := 0; round < rounds; round++ {
		for i, s := range scheds {
			body := append(mustJSON(struct {
				Failed []int `json:"failed"`
			}{s[round].IDs}), '\n')
			list = append(list, op{id: len(list), path: "/v1/fields/" + fieldID(i) + "/events", body: body, field: i})
		}
	}
	w.ops = [][]op{list}
}

// digest hashes every generated request in issue order, so two run sets
// can be shown to have used identical inputs.
func (w *workload) digest() string {
	h := sha256.New()
	// Ops that share a body (repair-cached cycles over eight) hash it once.
	sums := map[*byte][32]byte{}
	write := func(o op) {
		sum, ok := sums[&o.body[0]]
		if !ok {
			sum = sha256.Sum256(o.body)
			sums[&o.body[0]] = sum
		}
		h.Write([]byte(o.path))
		h.Write([]byte{0})
		h.Write(sum[:])
	}
	for _, o := range w.setup {
		write(o)
	}
	for c, list := range w.ops {
		fmt.Fprintf(h, "conn %d\n", c)
		for _, o := range list {
			write(o)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
