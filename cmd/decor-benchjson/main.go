// Command decor-benchjson converts `go test -bench` text output (read
// from stdin) into a stable JSON document, so benchmark baselines can be
// committed and diffed, and gates fresh documents against them.
//
// Repeated samples of the same benchmark (-count=N) are aggregated into
// min/mean/max ns/op and the minimum B/op and allocs/op: a collection or
// a pool flush landing in one sample inflates it, none deflates it. Any
// custom metrics keep the values of the last sample.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem -count=3 ./internal/sim/ | decor-benchjson -o BENCH_sim.json
//
// With -gate it reads a gate table (BENCH_gates.txt, whose header
// documents the format). For each run line it prints the committed
// baseline beside the table against the same-named file in FRESHDIR, a
// STALE line for each benchmark whose allocs/op or B/op moved more than
// 10% from its baseline, then one verdict line per gate row, and exits
// 1 if any row fails (STALE lines never do).
// Every file and row is checked before the exit status is decided;
// scripts/benchstat.sh fills FRESHDIR and calls it:
//
//	decor-benchjson -gate BENCH_gates.txt FRESHDIR
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one aggregated benchmark result.
type Entry struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	Samples     int                `json:"samples"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     Stat               `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Stat summarizes the ns/op samples of one benchmark.
type Stat struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// benchLine matches "BenchmarkX/sub-8   10   123 ns/op   [pairs...]".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("o", "-", `output file ("-" = stdout)`)
	table := flag.String("gate", "", "gate table; check the BENCH files in the one argument, FRESHDIR, against the baselines beside the table and exit 1 if any row fails")
	flag.Parse()

	if *table != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "decor-benchjson: -gate needs exactly one FRESHDIR argument")
			os.Exit(2)
		}
		failed, err := runGate(*table, flag.Arg(0), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "decor-benchjson:", err)
			os.Exit(2)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "decor-benchjson: %d gate failure(s)\n", failed)
			os.Exit(1)
		}
		return
	}

	list, err := parse(os.Stdin)
	if err == nil {
		var b []byte
		if b, err = json.MarshalIndent(list, "", "  "); err == nil {
			b = append(b, '\n')
			if *out == "-" {
				_, err = os.Stdout.Write(b)
			} else {
				err = os.WriteFile(*out, b, 0o644)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "decor-benchjson:", err)
		os.Exit(1)
	}
}

// parse aggregates `go test -bench` output into one Entry per package
// and benchmark, sorted by package, then name.
func parse(r io.Reader) ([]*Entry, error) {
	entries := map[string]*Entry{} // keyed by pkg + "\t" + name
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		mt := benchLine.FindStringSubmatch(line)
		if mt == nil {
			continue
		}
		name := mt[1]
		iters, _ := strconv.ParseInt(mt[2], 10, 64)
		key := pkg + "\t" + name
		e := entries[key]
		if e == nil {
			e = &Entry{Pkg: pkg, Name: name, NsPerOp: Stat{Min: -1}}
			entries[key] = e
		}
		e.Samples++
		e.Iterations = iters
		// The tail is "value unit" pairs: "123 ns/op 4 B/op 0.5 custom".
		fields := strings.Fields(mt[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				if e.NsPerOp.Min < 0 || v < e.NsPerOp.Min {
					e.NsPerOp.Min = v
				}
				if v > e.NsPerOp.Max {
					e.NsPerOp.Max = v
				}
				// Accumulate the mean incrementally in Mean.
				e.NsPerOp.Mean += (v - e.NsPerOp.Mean) / float64(e.Samples)
			case "B/op":
				e.BytesPerOp = lower(e.BytesPerOp, v)
			case "allocs/op":
				e.AllocsPerOp = lower(e.AllocsPerOp, v)
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	list := make([]*Entry, len(keys))
	for i, k := range keys {
		list[i] = entries[k]
	}
	return list, nil
}

// lower returns the smaller of *p and v, or v for the first sample.
func lower(p *float64, v float64) *float64 {
	if p == nil || v < *p {
		return &v
	}
	return p
}

// loadEntries reads one committed benchmark JSON document.
func loadEntries(path string) ([]*Entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*Entry
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return list, nil
}

// gateRun is one run line of the gate table and the rows under it.
type gateRun struct {
	file      string // BENCH file, beside the table and in FRESHDIR
	selection string // the run's -bench regexp
	rows      []gateRow
}

// gateRow is one gate: bench's metric must hold kind's bound.
type gateRow struct {
	bench, metric, kind string
	limit               float64 // band percent, ceiling, or ratio factor
	other               string  // ratio: the benchmark bench is compared with
}

// kindArgs is the number of arguments each gate kind takes.
var kindArgs = map[string]int{"exact": 0, "band": 1, "ceiling": 1, "ratio": 2}

// readTable parses the gate table at path: run lines
// `run FILE BENCHTIME COUNT SELECTION PACKAGE...`, each followed by its
// rows `BENCH METRIC KIND [LIMIT [OTHER]]`; blanks and # comments skip.
func readTable(path string) ([]*gateRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []*gateRun
	for i, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if f[0] == "run" {
			if len(f) < 6 {
				return nil, fmt.Errorf("%s:%d: want run FILE BENCHTIME COUNT SELECTION PACKAGE...", path, i+1)
			}
			runs = append(runs, &gateRun{file: f[1], selection: f[4]})
			continue
		}
		r, err := parseRow(f)
		if err == nil && len(runs) == 0 {
			err = errors.New("gate row before the first run line")
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		runs[len(runs)-1].rows = append(runs[len(runs)-1].rows, r)
	}
	return runs, nil
}

func parseRow(f []string) (gateRow, error) {
	if len(f) < 3 || (f[1] != "ns" && f[1] != "allocs" && f[1] != "bytes") {
		return gateRow{}, errors.New("want BENCH ns|allocs|bytes KIND")
	}
	r := gateRow{bench: f[0], metric: f[1], kind: f[2]}
	n, ok := kindArgs[r.kind]
	if !ok || len(f) != 3+n {
		return r, errors.New("want KIND exact | band PCT | ceiling N | ratio FACTOR BENCH")
	}
	if n > 0 {
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return r, err
		}
		r.limit = v
	}
	if n == 2 {
		r.other = f[4]
	}
	return r, nil
}

// value returns e's figure for metric: the minimum over the samples.
func value(e *Entry, metric string) (float64, bool) {
	switch {
	case e == nil:
	case metric == "ns":
		return e.NsPerOp.Min, true
	case metric == "allocs" && e.AllocsPerOp != nil:
		return *e.AllocsPerOp, true
	case metric == "bytes" && e.BytesPerOp != nil:
		return *e.BytesPerOp, true
	}
	return 0, false
}

// runGate checks every row of the table at tablePath against the
// baselines beside it and the same-named files in freshDir. It prints
// each file's diff and one verdict per row to w, and returns the number
// of failures: failing rows plus unreadable files. A bench or metric
// missing from either file fails its row.
func runGate(tablePath, freshDir string, w io.Writer) (int, error) {
	runs, err := readTable(tablePath)
	if err != nil {
		return 0, err
	}
	failed := 0
	for _, run := range runs {
		var sides [2]map[string]*Entry
		for i, path := range []string{filepath.Join(filepath.Dir(tablePath), run.file), filepath.Join(freshDir, run.file)} {
			list, err := loadEntries(path)
			if err != nil {
				fmt.Fprintf(w, "FAIL %v\n", err)
				failed++
			}
			sides[i] = map[string]*Entry{}
			for _, e := range list {
				sides[i][e.Name] = e
			}
		}
		base, fresh := sides[0], sides[1]
		printDiff(w, run.file, base, fresh)
		printStale(w, base, fresh)
		for _, r := range run.rows {
			if !check(w, r, base, fresh) {
				failed++
			}
		}
	}
	return failed, nil
}

// printDiff prints one file's baseline against its fresh run: min ns/op
// with the speedup, allocs/op and B/op. Benchmarks in only one file are
// listed as new or gone.
func printDiff(w io.Writer, file string, base, fresh map[string]*Entry) {
	names := make([]string, 0, len(base)+len(fresh))
	for n := range base {
		names = append(names, n)
	}
	for n := range fresh {
		if base[n] == nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-44s %13s %13s %8s %10s %10s %10s %10s\n", file+" min ns/op",
		"old", "new", "speedup", "old allocs", "new allocs", "old B/op", "new B/op")
	for _, n := range names {
		o, e := base[n], fresh[n]
		speed := "(gone)"
		if o == nil {
			speed = "(new)"
		} else if e != nil {
			speed = fmt.Sprintf("%.2fx", o.NsPerOp.Min/e.NsPerOp.Min)
		}
		fmt.Fprintf(w, "%-44s %13s %13s %8s %10s %10s %10s %10s\n", n,
			show(value(o, "ns")), show(value(e, "ns")), speed,
			show(value(o, "allocs")), show(value(e, "allocs")),
			show(value(o, "bytes")), show(value(e, "bytes")))
	}
}

// staleMove is how far, as a share of its baseline, a benchmark's
// allocs/op or B/op may move before the gate calls its entry stale.
const staleMove = 0.10

// printStale prints a STALE line for each benchmark in both files whose
// allocs/op or B/op moved more than staleMove from its baseline, either
// way, gated or not. A baseline the code has moved away from widens
// every band over it, so the lines say which entries to re-record; they
// never fail the gate.
func printStale(w io.Writer, base, fresh map[string]*Entry) {
	names := make([]string, 0, len(base))
	for n := range base {
		if fresh[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		var moved []string
		for _, metric := range []string{"allocs", "bytes"} {
			b, okB := value(base[n], metric)
			f, okF := value(fresh[n], metric)
			if !okB || !okF || math.Abs(f-b) <= staleMove*b {
				continue
			}
			change := "from 0"
			if b != 0 {
				change = fmt.Sprintf("%+.1f%%", (f-b)/b*100)
			}
			moved = append(moved, fmt.Sprintf("%s %s -> %s (%s)", metric, show(b, true), show(f, true), change))
		}
		if len(moved) > 0 {
			fmt.Fprintf(w, "STALE %-44s %s\n", n, strings.Join(moved, ", "))
		}
	}
}

// check prints r's verdict line and reports whether the row holds.
func check(w io.Writer, r gateRow, base, fresh map[string]*Entry) bool {
	b, okB := value(base[r.bench], r.metric)
	f, okF := value(fresh[r.bench], r.metric)
	ok := okB && okF
	var bound string
	switch r.kind {
	case "exact":
		ok = ok && f == b
		bound = "== " + show(b, okB)
	case "band":
		limit := b * (1 + r.limit/100)
		ok = ok && f <= limit
		bound = "<= " + show(limit, okB)
	case "ceiling":
		ok = ok && f <= r.limit
		bound = "<= " + show(r.limit, true)
	case "ratio":
		o, okO := value(fresh[r.other], r.metric)
		ok = ok && okO && f >= r.limit*o
		bound = fmt.Sprintf(">= %s (%gx %s)", show(r.limit*o, okO), r.limit, r.other)
	}
	kind := r.kind
	if r.kind == "band" {
		kind = fmt.Sprintf("band +%g%%", r.limit)
	}
	verdict := "ok  "
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s %-44s %-6s %-10s baseline %-10s fresh %-10s limit %s\n",
		verdict, r.bench, r.metric, kind, show(b, okB), show(f, okF), bound)
	return ok
}

// show formats a metric to one decimal, or "missing" when absent.
func show(v float64, ok bool) string {
	if !ok {
		return "missing"
	}
	return strconv.FormatFloat(math.Round(v*10)/10, 'f', -1, 64)
}
