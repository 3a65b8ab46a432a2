// Command decor-load is a closed-loop load generator for decor-serve:
// -c workers each keep exactly one POST /v1/plan in flight against -url
// for -d, then the tool reports throughput, latency percentiles, status
// classes and cache behaviour, optionally as a JSON summary (-json).
// The service's measured numbers come from perfbench (BENCHMARK.json);
// this tool explores and smoke-tests.
//
// Closed-loop means offered load adapts to service speed — the tool
// measures sustainable throughput rather than piling up an open-loop
// backlog. -unique cycles that many distinct seeds so the run exercises
// the worker pool, not just the plan cache; -unique 1 measures the pure
// cache path.
//
// Examples:
//
//	decor-load -url http://127.0.0.1:8080 -c 8 -d 10s
//	decor-load -url http://127.0.0.1:8080 -c 4 -d 5s -unique 4 \
//	    -json load.json -min-rps 500 -max-p99 200ms -max-errors 0
//
// With assertion flags set, a violated threshold exits non-zero — that
// is what `make serve-smoke` relies on.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decor/internal/obs"
)

func main() {
	os.Exit(run())
}

type config struct {
	url     string
	c       int
	dur     time.Duration
	unique  int
	field   float64
	k       int
	rs      float64
	points  int
	scatter int
	method  string
	timeout time.Duration

	jsonPath  string
	minRPS    float64
	maxP99    time.Duration
	maxErrors int
}

// sample is one completed request.
type sample struct {
	latency time.Duration
	status  int
	cache   string // X-Decor-Cache header: miss|hit|"" on errors
}

func run() int {
	var cfg config
	flag.StringVar(&cfg.url, "url", "http://127.0.0.1:8080", "decor-serve base URL")
	flag.IntVar(&cfg.c, "c", 8, "concurrent closed-loop workers (one request in flight each)")
	flag.DurationVar(&cfg.dur, "d", 10*time.Second, "measurement duration")
	flag.IntVar(&cfg.unique, "unique", 4, "distinct request seeds cycled across workers (1 = pure cache path)")
	flag.Float64Var(&cfg.field, "field", 100, "request field_side (figure-scale default)")
	flag.IntVar(&cfg.k, "k", 3, "request k")
	flag.Float64Var(&cfg.rs, "rs", 4, "request rs")
	flag.IntVar(&cfg.points, "points", 2000, "request num_points")
	flag.IntVar(&cfg.scatter, "scatter", 200, "request scatter count")
	flag.StringVar(&cfg.method, "method", "voronoi-big", "request method")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request HTTP client timeout")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the summary as JSON to this file")
	flag.Float64Var(&cfg.minRPS, "min-rps", 0, "fail (exit 1) when throughput is below this many plans/s")
	flag.DurationVar(&cfg.maxP99, "max-p99", 0, "fail (exit 1) when p99 latency exceeds this")
	flag.IntVar(&cfg.maxErrors, "max-errors", -1, "fail (exit 1) when 5xx+transport errors exceed this (-1 disables)")
	flag.Parse()
	if cfg.c < 1 || cfg.unique < 1 || cfg.dur <= 0 {
		fmt.Fprintln(os.Stderr, "decor-load: -c and -unique must be >= 1, -d > 0")
		return 1
	}
	sum, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decor-load:", err)
		return 1
	}
	sum.print(os.Stdout)
	if cfg.jsonPath != "" {
		if err := sum.writeJSON(cfg.jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "decor-load:", err)
			return 1
		}
	}
	return sum.assert(cfg, os.Stderr)
}

// bodies precomputes the -unique request payloads; workers cycle through
// them so each distinct seed stays individually cacheable.
func bodies(cfg config) [][]byte {
	bs := make([][]byte, cfg.unique)
	for i := range bs {
		bs[i], _ = json.Marshal(map[string]any{
			"field_side": cfg.field,
			"k":          cfg.k,
			"rs":         cfg.rs,
			"num_points": cfg.points,
			"scatter":    cfg.scatter,
			"method":     cfg.method,
			"seed":       uint64(i + 1),
		})
	}
	return bs
}

// sampleCap sizes each worker's local sample buffer so steady-state
// appends never reallocate mid-run (reallocation pauses pollute latency
// tails): a closed-loop worker tops out around two requests per
// millisecond on the pure cache path.
func sampleCap(d time.Duration) int {
	c := int(d.Milliseconds()) * 2
	if c < 1024 {
		c = 1024
	}
	if c > 1<<18 {
		c = 1 << 18
	}
	return c
}

// drain empties a response body into the caller's reusable buffer.
// io.Copy(io.Discard, ...) hides its buffering; this keeps one buffer
// per worker for the whole run.
func drain(r io.Reader, buf []byte) {
	for {
		if _, err := r.Read(buf); err != nil {
			return
		}
	}
}

// scrapeMallocs reads the server's cumulative heap-allocation counter
// (decor_serve_go_mallocs_total) from /metrics. ok is false when the
// target does not expose the gauge (older server, metrics disabled);
// callers then skip the allocs_per_request derivation.
func scrapeMallocs(client *http.Client, base string) (float64, bool) {
	resp, err := client.Get(base + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return 0, false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), obs.ServeHeapAllocs+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func measure(cfg config) (*summary, error) {
	client := &http.Client{Timeout: cfg.timeout}
	planURL := cfg.url + "/v1/plan"
	payloads := bodies(cfg)

	// One warm-up request validates the target before unleashing workers.
	if s := doOne(client, planURL, payloads[0], bytes.NewReader(nil), make([]byte, 32<<10)); s.status == 0 {
		return nil, fmt.Errorf("target %s unreachable", planURL)
	}

	var (
		mu      sync.Mutex
		samples []sample
		stop    atomic.Bool
		seq     atomic.Int64
		wg      sync.WaitGroup
	)
	mallocs0, haveMallocs := scrapeMallocs(client, cfg.url)
	start := time.Now()
	time.AfterFunc(cfg.dur, func() { stop.Store(true) })
	wg.Add(cfg.c)
	for w := 0; w < cfg.c; w++ {
		go func() {
			defer wg.Done()
			// Per-worker reusables: the sample buffer sized for the whole
			// run, one body reader, one read buffer.
			local := make([]sample, 0, sampleCap(cfg.dur))
			rd := bytes.NewReader(nil)
			buf := make([]byte, 32<<10)
			for !stop.Load() {
				body := payloads[int(seq.Add(1))%len(payloads)]
				local = append(local, doOne(client, planURL, body, rd, buf))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(samples) == 0 {
		return nil, fmt.Errorf("no requests completed in %s", cfg.dur)
	}
	s := summarize(cfg, samples, elapsed)
	if mallocs1, ok := scrapeMallocs(client, cfg.url); ok && haveMallocs {
		s.AllocsPerReq = (mallocs1 - mallocs0) / float64(len(samples))
	}
	return s, nil
}

// doOne issues a single plan request, reusing the caller's body reader
// and read buffer; transport failures come back as status 0 and count
// as errors.
func doOne(client *http.Client, url string, body []byte, rd *bytes.Reader, buf []byte) sample {
	rd.Reset(body)
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", rd)
	if err != nil {
		return sample{latency: time.Since(t0)}
	}
	drain(resp.Body, buf)
	resp.Body.Close()
	return sample{
		latency: time.Since(t0),
		status:  resp.StatusCode,
		cache:   resp.Header.Get("X-Decor-Cache"),
	}
}

// summary is the run's aggregate, also the -json schema.
type summary struct {
	Target      string  `json:"target"`
	Method      string  `json:"method"`
	Concurrency int     `json:"concurrency"`
	Unique      int     `json:"unique_requests"`
	DurationS   float64 `json:"duration_s"`
	Requests    int     `json:"requests"`
	PlansPerSec float64 `json:"plans_per_sec"`
	Status      struct {
		OK2xx     int `json:"2xx"`
		Client4xx int `json:"4xx"`
		Server5xx int `json:"5xx"`
		Transport int `json:"transport_errors"`
	} `json:"status"`
	Cache struct {
		Hit  int `json:"hit"`
		Miss int `json:"miss"`
	} `json:"cache"`
	LatencyMS struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`
	// AllocsPerReq is the server-side heap-allocation cost of the run:
	// the delta of decor_serve_go_mallocs_total between two /metrics
	// scrapes divided by requests issued. It includes everything the
	// server did during the window (GC bookkeeping, other handlers), so
	// it is an upper bound on the request path itself. Zero when the
	// target does not expose the gauge.
	AllocsPerReq float64 `json:"allocs_per_request,omitempty"`
}

func summarize(cfg config, samples []sample, elapsed time.Duration) *summary {
	s := &summary{
		Target:      cfg.url,
		Method:      cfg.method,
		Concurrency: cfg.c,
		Unique:      cfg.unique,
		DurationS:   elapsed.Seconds(),
		Requests:    len(samples),
	}
	lats := make([]float64, len(samples))
	var total float64
	for i, sm := range samples {
		ms := float64(sm.latency) / float64(time.Millisecond)
		lats[i] = ms
		total += ms
		switch {
		case sm.status == 0:
			s.Status.Transport++
		case sm.status < 300:
			s.Status.OK2xx++
		case sm.status < 500:
			s.Status.Client4xx++
		default:
			s.Status.Server5xx++
		}
		switch sm.cache {
		case "hit":
			s.Cache.Hit++
		case "miss":
			s.Cache.Miss++
		}
	}
	sort.Float64s(lats)
	pct := func(p float64) float64 {
		i := int(p / 100 * float64(len(lats)-1))
		return lats[i]
	}
	s.PlansPerSec = float64(s.Status.OK2xx) / elapsed.Seconds()
	s.LatencyMS.Mean = total / float64(len(lats))
	s.LatencyMS.P50 = pct(50)
	s.LatencyMS.P90 = pct(90)
	s.LatencyMS.P99 = pct(99)
	s.LatencyMS.Max = lats[len(lats)-1]
	return s
}

func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "decor-load: %d requests in %.2fs against %s (c=%d, unique=%d, %s)\n",
		s.Requests, s.DurationS, s.Target, s.Concurrency, s.Unique, s.Method)
	fmt.Fprintf(w, "  throughput: %.1f plans/s\n", s.PlansPerSec)
	fmt.Fprintf(w, "  status:     %d 2xx, %d 4xx, %d 5xx, %d transport errors\n",
		s.Status.OK2xx, s.Status.Client4xx, s.Status.Server5xx, s.Status.Transport)
	fmt.Fprintf(w, "  cache:      %d hit, %d miss\n", s.Cache.Hit, s.Cache.Miss)
	fmt.Fprintf(w, "  latency ms: mean %.2f, p50 %.2f, p90 %.2f, p99 %.2f, max %.2f\n",
		s.LatencyMS.Mean, s.LatencyMS.P50, s.LatencyMS.P90, s.LatencyMS.P99, s.LatencyMS.Max)
	if s.AllocsPerReq > 0 {
		fmt.Fprintf(w, "  allocs:     %.1f server-side allocs/request (from %s)\n",
			s.AllocsPerReq, obs.ServeHeapAllocs)
	}
}

func (s *summary) writeJSON(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// assert applies the threshold flags; each violation is reported and any
// violation makes the exit code 1.
func (s *summary) assert(cfg config, w io.Writer) int {
	code := 0
	if cfg.minRPS > 0 && s.PlansPerSec < cfg.minRPS {
		fmt.Fprintf(w, "decor-load: FAIL throughput %.1f plans/s < required %.1f\n", s.PlansPerSec, cfg.minRPS)
		code = 1
	}
	if cfg.maxP99 > 0 {
		if p99 := time.Duration(s.LatencyMS.P99 * float64(time.Millisecond)); p99 > cfg.maxP99 {
			fmt.Fprintf(w, "decor-load: FAIL p99 %s > allowed %s\n", p99.Round(time.Millisecond), cfg.maxP99)
			code = 1
		}
	}
	if errs := s.Status.Server5xx + s.Status.Transport; cfg.maxErrors >= 0 && errs > cfg.maxErrors {
		fmt.Fprintf(w, "decor-load: FAIL %d errors (5xx+transport) > allowed %d\n", errs, cfg.maxErrors)
		code = 1
	}
	return code
}
