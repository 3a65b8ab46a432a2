package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// outcome is what one served plan or delta reported; the quality
// metrics and the traced run's parity check read it.
type outcome struct {
	ok       bool // 2xx, parsed, and passed every output check
	placed   int
	messages int
	covered  bool
	total    int // total_sensors, used to derive field-events schedules
}

// reply is the part of a plan response or session delta the checks
// read. Placements are counted, not decoded: the counting happens
// inside a full encoding/json parse, so malformed bodies still fail.
type reply struct {
	Placed     *int       `json:"placed"`
	Messages   int        `json:"messages"`
	Total      int        `json:"total_sensors"`
	Placements pointCount `json:"placements"`
	Covered    *bool      `json:"fully_covered"`
	Error      *string    `json:"error"`
}

type pointCount int

// UnmarshalJSON counts the objects of a placements array (points hold
// no nested objects, so each '{' starts one).
func (c *pointCount) UnmarshalJSON(b []byte) error {
	*c = pointCount(bytes.Count(b, []byte{'{'}))
	return nil
}

// errInband marks a reply that is an {"error":…} object: a failed op,
// not a wrong answer.
var errInband = errors.New("in-band error")

// check parses one plan or delta body and applies the output checks:
// it parses, carries no in-band error, is fully covered, and lists
// exactly as many placements as it reports placed.
func check(body []byte) (outcome, error) {
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return outcome{}, fmt.Errorf("reply does not parse: %w", err)
	}
	if r.Error != nil {
		return outcome{}, fmt.Errorf("%w: %s", errInband, *r.Error)
	}
	if r.Placed == nil || r.Covered == nil {
		return outcome{}, errors.New("reply lacks placed or fully_covered")
	}
	o := outcome{placed: *r.Placed, messages: r.Messages, covered: *r.Covered, total: r.Total}
	if !o.covered {
		return o, errors.New("reply is not fully_covered")
	}
	if int(r.Placements) != o.placed {
		return o, fmt.Errorf("reply lists %d placements but placed=%d", r.Placements, o.placed)
	}
	o.ok = true
	return o, nil
}

// conn is one client connection: its own transport, capped at a single
// TCP connection, so a run never holds more connections than workers.
type conn struct {
	client *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// post sends one op and returns the status, cache header and body (valid
// until the next post on this connection).
func (c *conn) post(url string, o op) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Decor-Tenant", tenant)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Decor-Cache"), c.buf.Bytes(), nil
}

// span is one client-observed op in the traced run.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Conn   int    `json:"conn"`
	Start  int64  `json:"start_ns"` // since the measured phase began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: a client op is a root span
}

// connRun is one connection's measured phase.
type connRun struct {
	lat       []time.Duration // successful ops, in completion order
	done      []time.Duration // when each of them completed, since the phase began
	outcomes  []outcome       // every attempted op, in op-list order
	attempted int
	failed    int
	checkErr  error // first output check that failed
	spans     []span
}

// served remembers the set-up response of each repair body, so a cache
// hit is checked by byte equality with the plan it must reproduce.
type served struct {
	body []byte
	out  outcome
}

// runConn drives one connection closed loop through its op list until
// the deadline has passed and its window is complete, or the list ends.
func runConn(c *conn, url string, ops []op, window int, t0, deadline time.Time, known map[*byte]served, traced bool, ci int) *connRun {
	r := &connRun{outcomes: make([]outcome, 0, 1024)}
	for _, o := range ops {
		if len(r.outcomes) >= window && !time.Now().Before(deadline) {
			break
		}
		start := time.Now()
		status, cache, body, err := c.post(url, o)
		lat := time.Since(start)
		r.attempted++
		if traced {
			r.spans = append(r.spans, span{Name: "client." + o.path, Op: o.id, Conn: ci,
				Start: int64(start.Sub(t0)), End: int64(start.Add(lat).Sub(t0)), Parent: -1})
		}
		if err != nil || status/100 != 2 {
			r.failed++
			r.outcomes = append(r.outcomes, outcome{})
			continue
		}
		k, ok := known[&o.body[0]]
		out := k.out
		if !ok || !bytes.Equal(body, k.body) {
			out, err = check(body)
			if errors.Is(err, errInband) {
				r.failed++
				r.outcomes = append(r.outcomes, outcome{})
				continue
			}
			if err == nil && ok {
				err = errors.New("cache hit differs from its set-up plan")
			}
			if err != nil {
				if r.checkErr == nil {
					r.checkErr = fmt.Errorf("op %d %s: %w", o.id, o.path, err)
				}
				r.outcomes = append(r.outcomes, outcome{})
				continue
			}
		}
		if cache != o.want && r.checkErr == nil {
			r.checkErr = fmt.Errorf("op %d %s: X-Decor-Cache %q, want %q", o.id, o.path, cache, o.want)
		}
		r.outcomes = append(r.outcomes, out)
		r.lat = append(r.lat, lat)
		r.done = append(r.done, start.Add(lat).Sub(t0))
	}
	return r
}

// runPhase runs every connection at once and returns when all stop,
// with the server's and the machine's CPU time read at each slice
// boundary, and the speed probe run every probeEvery in between.
func runPhase(conns []*conn, srv *server, w *workload, seconds int, known map[*byte]served, traced bool) ([]*connRun, time.Duration, []mark) {
	runs := make([]*connRun, len(conns))
	n := numSlices(seconds)
	marks := make([]mark, 0, n+1)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	var wg sync.WaitGroup
	m0, err := readMark(srv.pid())
	t0 := time.Now()
	go func() {
		defer close(sampled)
		if err != nil {
			return
		}
		marks = append(marks, m0)
		for i := 1; i <= n; i++ {
			at := t0.Add(time.Duration(i) * sliceLen)
			// sleep reports false when the phase ended before at: no
			// more whole slices.
			sleep := func(until time.Time) bool {
				select {
				case <-time.After(time.Until(until)):
					return true
				case <-stop:
					return !time.Now().Before(at)
				}
			}
			var probes []float64
			for next := at.Add(probeEvery - sliceLen); at.Sub(next) >= probeEvery/2; next = next.Add(probeEvery) {
				if !sleep(next) {
					return
				}
				d, err := speedProbe()
				if err != nil {
					return
				}
				probes = append(probes, float64(d))
			}
			if !sleep(at) {
				return
			}
			m, err := readMark(srv.pid())
			if err != nil {
				return
			}
			m.probe = time.Duration(median(probes))
			marks = append(marks, m)
		}
	}()
	deadline := t0.Add(time.Duration(seconds) * time.Second)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = runConn(conns[i], srv.url, w.ops[i], w.window, t0, deadline, known, traced, i)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	close(stop)
	<-sampled
	return runs, wall, marks
}
