package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		q      float64
		n      int
		ok     bool
		ms     float64
		beyond int
	}{
		{0.5, 19, false, 0, 9},
		{0.5, 20, true, 10, 10},
		{0.9, 99, false, 0, 9},
		{0.9, 100, true, 90, 10},
		{0.9, 1000, true, 900, 100},
	} {
		got, err := percentile(durations(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d: err = %v, want ok=%t", tc.q*100, tc.n, err, tc.ok)
		}
		if got.Samples != tc.n || got.Beyond != tc.beyond {
			t.Errorf("p%g of %d: counts %d/%d, want %d/%d", tc.q*100, tc.n, got.Samples, got.Beyond, tc.n, tc.beyond)
		}
		if tc.ok && got.MS != tc.ms {
			t.Errorf("p%g of %d = %gms, want %gms", tc.q*100, tc.n, got.MS, tc.ms)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples did not refuse")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestParseStat(t *testing.T) {
	// The command name holds a space and a parenthesis, as a renamed
	// process may; utime=1234 and stime=56 ticks.
	const stat = "7908 (decor (serve) x) S 1 7907 7861 0 -1 4194560 2461 0 0 0 1234 56 0 0 20 0 7 0 206420 1718374400 3933 18446744073709551615"
	cpu, err := parseStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.user != 12340*time.Millisecond || cpu.sys != 560*time.Millisecond {
		t.Errorf("cpu = %+v", cpu)
	}
	for _, bad := range []string{"", "12 decor S 1", "12 (decor) S 1 2 3"} {
		if _, err := parseStat(bad); err == nil {
			t.Errorf("parseStat(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	const status = "Name:\tdecor-serve\nVmPeak:\t 1718374400 kB\nVmHWM:\t   15880 kB\nVmRSS:\t   15000 kB\n"
	v, err := parseStatusKB(status, "VmHWM")
	if err != nil || v != 15880 {
		t.Errorf("VmHWM = %d, %v", v, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 pages\n", "VmHWM"); err == nil {
		t.Error("unit other than kB accepted")
	}
}

func TestParseHostStat(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	const stat = "cpu  100 2 30 500 8 0 5 40 7 0\ncpu0 50 1 15 250 4 0 2 20 3 0\nintr 1 2 3\n"
	h, err := parseHostStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (hostCPU{steal: 40, idle: 508, total: 685}); h != want {
		t.Errorf("host = %+v, want %+v", h, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 3 4 5 6 7\n", "cpu  1 2 3 4 5 6 7 x\n"} {
		if _, err := parseHostStat(bad); err == nil {
			t.Errorf("parseHostStat(%q) accepted", bad)
		}
	}
}

func TestStolenShare(t *testing.T) {
	a := hostCPU{steal: 10, idle: 100, total: 300}
	// 200 ticks pass: 80 idle, so 120 busy, 30 of them stolen.
	b := hostCPU{steal: 40, idle: 180, total: 500}
	if s := stolenShare(a, b); s != 0.25 {
		t.Errorf("stolenShare = %g, want 0.25", s)
	}
	if s := stolenShare(a, a); s != 0 {
		t.Errorf("stolenShare of an idle interval = %g, want 0", s)
	}
}

// TestSliceStats builds a 12-second phase: slice k completes 200+k
// requests of 10 ms, and the odd slices have a fifth of their busy time
// stolen. The two warm-up slices are left out, the five least-stolen of
// the other ten (slices 2, 4, 6, 8, 10) are pooled, stolen time is taken
// out of what the pooled slices measured, and the speed probe's time
// over its reference divides the result.
func TestSliceStats(t *testing.T) {
	const seconds = 12
	p := &phase{seconds: seconds, wall: seconds * time.Second, runs: []*connRun{{}}}
	var h hostCPU
	var cpu time.Duration
	for k := 0; k <= seconds; k++ {
		p.marks = append(p.marks, mark{srv: procCPU{user: cpu}, host: h, probe: probeRef})
		steal := uint64(0)
		if k%2 == 1 {
			steal = 20
		}
		h = hostCPU{steal: h.steal + steal, idle: h.idle + 100, total: h.total + 200}
		cpu += 500 * time.Millisecond
		if k == seconds {
			break
		}
		r := p.runs[0]
		for i := 0; i < 200+k; i++ {
			r.lat = append(r.lat, 10*time.Millisecond)
			r.done = append(r.done, time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	sl, err := sliceStats(p)
	if err != nil {
		t.Fatal(err)
	}
	var pooled []int
	for i, sd := range sl.detail {
		if sd.Pooled {
			pooled = append(pooled, i+warmSlices)
		}
	}
	if want := []int{2, 4, 6, 8, 10}; !slices.Equal(pooled, want) {
		t.Errorf("pooled slices %v, want %v", pooled, want)
	}
	if ops := 202 + 204 + 206 + 208 + 210; sl.p50.Samples != ops || sl.throughput != float64(ops)/5 {
		t.Errorf("pooled %d requests at %g/s, want %d at %g/s", sl.p50.Samples, sl.throughput, ops, float64(ops)/5)
	}
	if sl.p90.MS != 10 || sl.stolenPct != 0 {
		t.Errorf("p90 %gms with %g%% stolen, want 10ms and none", sl.p90.MS, sl.stolenPct)
	}
	if sd := sl.detail[1]; sd.StolenPct != 20 || sd.Ops != 203 || sd.Pooled {
		t.Errorf("slice 3 = %+v, want 203 requests, 20%% stolen, not pooled", sd)
	}

	// With every slice stolen from, the least-stolen half is pooled and
	// each pooled slice counts only its unstolen share: 1-0.2 seconds,
	// and requests 0.8 times as long.
	for k := range p.marks {
		p.marks[k].host.steal = uint64(20 * k)
	}
	if sl, err = sliceStats(p); err != nil {
		t.Fatal(err)
	}
	if got, want := sl.p90.MS, 8.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled p90 = %gms, want %gms", got, want)
	}
	ops := 0
	for _, sd := range sl.detail {
		if sd.Pooled {
			ops += sd.Ops
		}
	}
	if got, want := sl.throughput, float64(ops)/(5*0.8); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled throughput = %g/s, want %g/s", got, want)
	}

	// A probe twice its reference time means cores running at half
	// speed: the same requests count as twice as fast.
	cpuMS := sl.cpuMS
	for k := range p.marks {
		p.marks[k].probe = 2 * probeRef
	}
	if sl, err = sliceStats(p); err != nil {
		t.Fatal(err)
	}
	if sl.slow != 2 || math.Abs(sl.p90.MS-4) > 1e-9 || math.Abs(sl.throughput-float64(ops)/(5*0.8)*2) > 1e-9 || math.Abs(sl.cpuMS-cpuMS/2) > 1e-9 {
		t.Errorf("at half speed: slow %g, p90 %gms, %g/s, cpu %gms; want 2, 4ms, %g/s, %gms",
			sl.slow, sl.p90.MS, sl.throughput, sl.cpuMS, float64(ops)/(5*0.8)*2, cpuMS/2)
	}
}

func TestSpeedProbe(t *testing.T) {
	for i := 0; i < 3; i++ {
		d, err := speedProbe()
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 || d > time.Second {
			t.Errorf("speedProbe = %v, want a positive CPU time well under a second", d)
		}
	}
}

func TestParseProm(t *testing.T) {
	const text = `# TYPE decor_serve_go_mallocs_total gauge
decor_serve_go_mallocs_total 7058

decor_serve_request_seconds_bucket{le="0.001"} 1
decor_serve_request_seconds_sum 0.034953766000000004
decor_serve_request_seconds_count 2
decor_serve_responses_total{route="/v1/plan",status="200",tenant="a b"} 5 1700000000000
`
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"decor_serve_go_mallocs_total":                                            7058,
		`decor_serve_request_seconds_bucket{le="0.001"}`:                          1,
		"decor_serve_request_seconds_sum":                                         0.034953766000000004,
		"decor_serve_request_seconds_count":                                       2,
		`decor_serve_responses_total{route="/v1/plan",status="200",tenant="a b"}`: 5,
	}
	if len(p) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(p), len(want), p)
	}
	for k, v := range want {
		if p[k] != v {
			t.Errorf("%s = %g, want %g", k, p[k], v)
		}
	}
	n, sum, err := histDelta(promSample{"h_count": 2, "h_sum": 1}, promSample{"h_count": 5, "h_sum": 2.5}, "h")
	if err != nil || n != 3 || sum != 1.5 {
		t.Errorf("histDelta = %g, %g, %v", n, sum, err)
	}
	for _, bad := range []string{"m", "m 1 2 3", "m{a=\"1\" 2", "m x"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

func TestCheck(t *testing.T) {
	ok := `{"method":"grid-big","placed":2,"messages":7,"placements":[{"x":1,"y":2},{"x":3,"y":4}],"fully_covered":true}`
	o, err := check([]byte(ok))
	if err != nil || o.placed != 2 || o.messages != 7 || !o.covered || !o.ok {
		t.Errorf("check(ok) = %+v, %v", o, err)
	}
	for _, bad := range []string{
		`{"placed":2,"placements":[{"x":1,"y":2}],"fully_covered":true}`,
		`{"placed":0,"placements":[],"fully_covered":false}`,
		`{"placed":0,"placements":[]}`,
		`{"placed":1,"placements":[{"x":1,"y":2}],"fully_covered":true`,
	} {
		if _, err := check([]byte(bad)); err == nil {
			t.Errorf("check(%s) accepted", bad)
		}
	}
	if _, err := check([]byte(`{"error":"session: field not found"}`)); !errors.Is(err, errInband) {
		t.Errorf("in-band error not flagged: %v", err)
	}
}

// gen builds a workload, filling field-events' schedules from fixed
// seq-0 totals.
func gen(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	w, err := generate(name, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if name == "field-events" {
		fieldEvents(w, []int{3400, 3500, 3600, 3700, 3800, 3900})
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"repair-cached", "plan-cold", "field-events"} {
		a, b := gen(t, name, 7), gen(t, name, 7)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 generated different inputs", name)
		}
		for c := range a.ops {
			for i := range a.ops[c] {
				if !bytes.Equal(a.ops[c][i].body, b.ops[c][i].body) {
					t.Fatalf("%s: op %d differs between generations", name, a.ops[c][i].id)
				}
			}
		}
		if gen(t, name, 8).digest() == a.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestGeneratedShapes(t *testing.T) {
	rc := gen(t, "repair-cached", 1)
	if len(rc.setup) != repairBodies || len(rc.ops) != 1 {
		t.Fatalf("repair-cached: %d set-up bodies, %d connections", len(rc.setup), len(rc.ops))
	}
	for _, o := range rc.setup {
		var b planBody
		if err := json.Unmarshal(o.body, &b); err != nil {
			t.Fatal(err)
		}
		if len(b.Sensors) != repairSensors || len(b.Failed) < 1 || len(b.Failed) > 3 {
			t.Errorf("repair body: %d sensors, %d failed", len(b.Sensors), len(b.Failed))
		}
	}

	pc := gen(t, "plan-cold", 1)
	if len(pc.setup) != planWarmup {
		t.Errorf("plan-cold: %d set-up plans, want %d", len(pc.setup), planWarmup)
	}
	seen := map[string]bool{}
	for _, list := range append([][]op{pc.setup}, pc.ops...) {
		for _, o := range list {
			if seen[string(o.body)] {
				t.Fatalf("plan-cold repeats a request body, which would hit the cache: %s", o.body)
			}
			seen[string(o.body)] = true
		}
	}

	fe := gen(t, "field-events", 1)
	failed := make([]map[int]bool, len(methods))
	for _, list := range fe.ops {
		perField := map[int]int{}
		for _, o := range list {
			perField[o.field]++
		}
		if len(perField) != len(methods) {
			t.Errorf("the list drives %d fields, want %d", len(perField), len(methods))
		}
		for f, n := range perField {
			if n != len(list)/len(methods) {
				t.Errorf("field %d has %d of %d events; the rounds are not whole", f, n, len(list))
			}
		}
		for _, o := range list {
			var ev struct{ Failed []int }
			if err := json.Unmarshal(o.body, &ev); err != nil {
				t.Fatal(err)
			}
			if failed[o.field] == nil {
				failed[o.field] = map[int]bool{}
			}
			for _, id := range ev.Failed {
				if failed[o.field][id] {
					t.Fatalf("field %d: sensor %d fails twice", o.field, id)
				}
				failed[o.field][id] = true
			}
		}
	}
	for i, f := range failed {
		if n := 3400 + 100*i; len(f) > n/4 {
			t.Errorf("field %d: %d of %d sensors fail, more than a quarter", i, len(f), n)
		}
	}
}
