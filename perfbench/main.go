// Command perfbench is decor-serve's end-to-end benchmark. Each run
// starts a fresh decor-serve (default flags, loopback), drives one
// closed-loop workload generated from --seed through at most two client
// connections, checks every reply, and prints one JSON result as its
// last line of output. With --trace 1 it instead reports per-layer
// costs: a traced served run plus an in-process replay of the same
// inputs with spans around each layer's public entry points.
//
// Run it through perfbench/run.sh, which builds decor-serve and this
// command from the enclosing checkout:
//
//	bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

func main() { os.Exit(run()) }

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	serverBin string
	spansDir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "repair-cached, plan-cold or field-events")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; equal seeds generate equal requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced run and an in-process replay")
	flag.StringVar(&cfg.serverBin, "server", "", "decor-serve binary to launch")
	flag.StringVar(&cfg.spansDir, "spans", "", "directory for the traced run's span log (empty: do not write it)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if flag.NArg() != 0 || cfg.serverBin == "" || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --server BIN --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// detail is printed before the result: everything a reader needs to
// judge the run that the result's fixed keys cannot hold.
type detail struct {
	Workload    string        `json:"workload"`
	Seed        uint64        `json:"seed"`
	Digest      string        `json:"inputs_sha256"`
	Conns       int           `json:"connections"`
	Ops         int           `json:"ops_ok"`
	WallS       float64       `json:"measured_s"`
	SetupS      []float64     `json:"setup_s_each"`
	SetupStolen float64       `json:"setup_stolen_pct"`
	Slices      []sliceDetail `json:"slices,omitempty"`
	Latency     []quantile    `json:"pooled_latency,omitempty"`
	StolenPct   float64       `json:"pooled_stolen_pct"`
	Slow        float64       `json:"pooled_probe_over_ref"`
	WindowOps   int           `json:"quality_window_ops,omitempty"`
	CheckError  string        `json:"check_error,omitempty"`
	ListExhaust bool          `json:"op_list_exhausted,omitempty"`
	ZeroLayers  []string      `json:"layers_not_exercised,omitempty"`
	ReplayOnS   float64       `json:"replay_spans_on_s,omitempty"`
	ReplayOffS  float64       `json:"replay_spans_off_s,omitempty"`
	ReplayedOps int           `json:"replayed_ops,omitempty"`
}

// runState is the server side of one run: the set-up repetitions and
// the server instance the measured phase runs against.
type runState struct {
	w           *workload
	conns       []*conn
	srv         *server
	setupS      []float64        // each launch's set-up time, as measured
	setupStolen float64          // stolenShare over the launches
	setup       []outcome        // the last repetition's set-up outcomes
	known       map[*byte]served // repair-cached: set-up plan per body
	// checkErr is the first failed output check; the run still reports
	// its metrics, with correct=false.
	checkErr error
}

func (s *runState) fail(err error) {
	if s.checkErr == nil && err != nil {
		s.checkErr = err
	}
}

// launch starts the server setupReps times, each time through /healthz
// and the workload's set-up, and keeps the last instance running. It
// reads the machine's steal around each timed launch, so setup_s can
// take stolen time out like the measured phase.
func launch(cfg config, w *workload) (*runState, error) {
	s := &runState{w: w, known: map[*byte]served{}}
	for i := 0; i < w.conns; i++ {
		s.conns = append(s.conns, newConn())
	}
	c := s.conns[0]
	var stolen, busy float64
	for rep := 0; rep < w.setupReps; rep++ {
		h0, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, err := startServer(cfg.serverBin)
		if err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(c.client); err != nil {
			srv.kill()
			return nil, err
		}
		outs, err := doSetup(c, srv.url, w, s.known)
		if err != nil {
			srv.kill()
			return nil, err
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		h1, err := readHostCPU()
		if err != nil {
			srv.kill()
			return nil, err
		}
		stolen += float64(h1.steal - h0.steal)
		busy += float64((h1.total - h1.idle) - (h0.total - h0.idle))
		if rep > 0 && !slices.Equal(outs, s.setup) {
			s.fail(errors.New("set-up replies differ between server launches"))
		}
		s.setup = outs
		if rep == 0 && w.name == "field-events" {
			totals := make([]int, len(outs))
			for i, o := range outs {
				totals[i] = o.total
			}
			fieldEvents(w, totals)
		}
		if rep == w.setupReps-1 {
			s.srv = srv
			break
		}
		// Earlier launches only time set-up. The drain check belongs to
		// the run's last instance, which has served the measured phase.
		srv.kill()
		c.tr.CloseIdleConnections()
	}
	if busy > 0 {
		s.setupStolen = stolen / busy
	}
	return s, nil
}

// doSetup issues the workload's set-up requests in order and checks
// each reply. An unusable reply is an error: the run cannot proceed.
func doSetup(c *conn, url string, w *workload, known map[*byte]served) ([]outcome, error) {
	outs := make([]outcome, len(w.setup))
	for i, o := range w.setup {
		status, cache, body, err := c.post(url, o)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", o.path, err)
		}
		if status/100 != 2 {
			return nil, fmt.Errorf("set-up %s: status %d: %s", o.path, status, body)
		}
		if o.want != "" && cache != o.want {
			return nil, fmt.Errorf("set-up %s: X-Decor-Cache %q, want %q", o.path, cache, o.want)
		}
		out, err := check(body)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", o.path, err)
		}
		outs[i] = out
		if o.field < 0 {
			known[&o.body[0]] = served{body: append([]byte(nil), body...), out: out}
		}
	}
	return outs, nil
}

// phase is one measured phase's raw results.
type phase struct {
	runs      []*connRun
	wall      time.Duration
	before    probe
	after     probe
	peakRSSKB int64
	exhausted bool
	marks     []mark // server and machine CPU at each slice boundary
	seconds   int
}

func (s *runState) measurePhase(seconds int, traced bool) (*phase, error) {
	c := s.conns[0]
	before, err := takeProbe(c.client, s.srv)
	if err != nil {
		s.srv.kill()
		return nil, err
	}
	runs, wall, marks := runPhase(s.conns, s.srv, s.w, seconds, s.known, traced)
	after, err := takeProbe(c.client, s.srv)
	if err != nil {
		s.srv.kill()
		return nil, err
	}
	rss, err := readPeakRSSKB(s.srv.pid())
	if err != nil {
		s.srv.kill()
		return nil, err
	}
	s.fail(s.srv.stop())
	p := &phase{runs: runs, wall: wall, before: before, after: after, peakRSSKB: rss, marks: marks, seconds: seconds}
	for i, r := range runs {
		s.fail(r.checkErr)
		if r.attempted == len(s.w.ops[i]) {
			p.exhausted = true
		}
		if len(r.outcomes) < s.w.window {
			s.fail(fmt.Errorf("connection %d completed %d ops, fewer than its quality window %d", i, len(r.outcomes), s.w.window))
		}
	}
	return p, nil
}

func (p *phase) latencies() []time.Duration {
	var all []time.Duration
	for _, r := range p.runs {
		all = append(all, r.lat...)
	}
	return all
}

func (p *phase) counts() (attempted, failed int) {
	for _, r := range p.runs {
		attempted += r.attempted
		failed += r.failed
	}
	return
}

func measure(cfg config) (*result, error) {
	w, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	s, err := launch(cfg, w)
	if err != nil {
		return nil, err
	}
	d := detail{Workload: w.name, Seed: cfg.seed, Digest: w.digest(), Conns: w.conns,
		SetupS: s.setupS, SetupStolen: 100 * s.setupStolen}
	if cfg.trace {
		traceCaps(w)
	}
	p, err := s.measurePhase(cfg.seconds, cfg.trace)
	if err != nil {
		return nil, err
	}
	lat := p.latencies()
	d.Ops, d.WallS, d.ListExhaust = len(lat), p.wall.Seconds(), p.exhausted
	attempted, failed := p.counts()
	res := &result{Attempted: attempted, Failed: failed}
	if cfg.trace {
		res.Metrics, err = layerMetrics(cfg, s, p, &d)
		if err != nil {
			return nil, err
		}
	} else {
		res.Metrics, err = endToEnd(s, p, lat, &d)
		if err != nil {
			return nil, err
		}
	}
	if s.checkErr != nil {
		d.CheckError = s.checkErr.Error()
	}
	res.Correct = s.checkErr == nil
	line, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// endToEnd computes the user-visible metrics of a timed run. Throughput,
// latency and server CPU come from the run's least-stolen slices, with
// the stolen time taken out, at the speed probe's reference speed (see
// sliceStats).
func endToEnd(s *runState, p *phase, lat []time.Duration, d *detail) (map[string]metric, error) {
	n := float64(len(lat))
	if n == 0 {
		return nil, errors.New("no op succeeded")
	}
	sl, err := sliceStats(p)
	if err != nil {
		return nil, err
	}
	d.Slices, d.Latency, d.StolenPct, d.Slow = sl.detail, []quantile{sl.p50, sl.p90}, sl.stolenPct, sl.slow

	var placed, messages, covered, window int
	for c, r := range p.runs {
		for i, o := range r.outcomes[:min(s.w.window, len(r.outcomes))] {
			if !inQuality(s.w.ops[c][i]) {
				continue
			}
			window++
			placed += o.placed
			messages += o.messages
			if o.covered {
				covered++
			}
		}
	}
	d.WindowOps = window
	if window == 0 {
		return nil, errors.New("empty quality window")
	}
	wn := float64(window)
	return map[string]metric{
		"setup_s":              {median(s.setupS) * (1 - s.setupStolen) / sl.slow, "s"},
		"throughput_ops_s":     {sl.throughput, "1/s"},
		"latency_p50_ms":       {sl.p50.MS, "ms"},
		"latency_p90_ms":       {sl.p90.MS, "ms"},
		"server_cpu_ms_per_op": {sl.cpuMS, "ms"},
		"server_allocs_per_op": {(p.after.allocs - p.before.allocs) / n, "count"},
		"server_peak_rss_mb":   {float64(p.peakRSSKB) / 1024, "MB"},
		"sensors_added_per_op": {float64(placed) / wn, "count"},
		"messages_per_op":      {float64(messages) / wn, "count"},
		"covered_share":        {float64(covered) / wn, "ratio"},
	}, nil
}
