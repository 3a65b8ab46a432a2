// Command decor-benchjson converts `go test -bench` text output (read
// from stdin) into a stable JSON document, so benchmark baselines can be
// committed and diffed — the `make bench-json` target writes
// BENCH_core.json with it.
//
// Repeated samples of the same benchmark (-count=N) are aggregated into
// min/mean/max ns/op; B/op, allocs/op and any custom metrics keep the
// values of the last sample (they are deterministic for these benches).
//
// Usage:
//
//	go test -bench=. -benchtime=1x -count=3 ./... | decor-benchjson -o BENCH_core.json
//
// With -diff, it instead compares two committed benchmark JSON files and
// prints an old-vs-new ratio table (scripts/benchstat.sh drives this as
// the `make check` performance smoke — report only by default):
//
//	decor-benchjson -diff BENCH_sim.json /tmp/fresh.json
//
// Adding -gate turns the report into a CI gate for matching benchmarks:
// exit 1 if any of them regressed in mean ns/op beyond -max-regress
// percent, if a matching baseline benchmark is missing from the new
// file, or if the regexp matches no baseline benchmark at all (the
// tracing-overhead gate in `make check` uses this to pin the
// recorder-disabled engine hot path):
//
//	decor-benchjson -diff -gate 'EngineRun/actors=64$' -max-regress 25 old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
	diff := flag.Bool("diff", false, "compare two benchmark JSON files (args: old new) and print a ratio table")
	gate := flag.String("gate", "", "with -diff: regexp of benchmark names to gate on; exit 1 if any regresses past -max-regress, is missing from the new file, or nothing matches")
	maxRegress := flag.Float64("max-regress", 25, "with -gate: allowed mean ns/op regression in percent")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "decor-benchjson: -diff needs exactly two JSON files (old new)")
			os.Exit(2)
		}
		var gateRe *regexp.Regexp
		if *gate != "" {
			var err error
			if gateRe, err = regexp.Compile(*gate); err != nil {
				fmt.Fprintf(os.Stderr, "decor-benchjson: bad -gate %q: %v\n", *gate, err)
				os.Exit(2)
			}
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), gateRe, *maxRegress))
	}

	entries := map[string]*Entry{} // keyed by pkg + "\t" + name
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
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
				b := v
				e.BytesPerOp = &b
			case "allocs/op":
				a := v
				e.AllocsPerOp = &a
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(list); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// loadEntries reads one committed benchmark JSON document.
func loadEntries(path string) []*Entry {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var list []*Entry
	if err := json.Unmarshal(b, &list); err != nil {
		fmt.Fprintf(os.Stderr, "decor-benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	return list
}

// runDiff prints an old-vs-new comparison of two benchmark JSON files:
// mean ns/op with the speedup ratio, and allocs/op with its reduction
// factor. Benchmarks present in only one file are listed but not
// compared. Without a gate it is a report and returns 0; with gateRe set
// it returns 1 when any matching benchmark's mean ns/op regressed by more
// than maxRegress percent, when a matching old benchmark has no new
// counterpart, or when gateRe matches no old benchmark — a renamed or
// dropped benchmark must not pass the gate by comparing nothing.
func runDiff(oldPath, newPath string, gateRe *regexp.Regexp, maxRegress float64) int {
	oldList, newList := loadEntries(oldPath), loadEntries(newPath)
	oldBy := map[string]*Entry{}
	for _, e := range oldList {
		oldBy[e.Pkg+"\t"+e.Name] = e
	}
	fmt.Printf("%-44s %14s %14s %9s %12s %12s %9s\n",
		"benchmark ("+oldPath+" vs "+newPath+")", "old ns/op", "new ns/op", "speedup", "old allocs", "new allocs", "factor")
	seen := map[string]bool{}
	failures := 0
	for _, e := range newList {
		key := e.Pkg + "\t" + e.Name
		seen[key] = true
		o := oldBy[key]
		if o == nil {
			fmt.Printf("%-44s %14s %14.0f %9s\n", e.Name, "(new)", e.NsPerOp.Mean, "-")
			continue
		}
		if gateRe != nil && gateRe.MatchString(e.Name) && o.NsPerOp.Mean > 0 {
			regress := (e.NsPerOp.Mean/o.NsPerOp.Mean - 1) * 100
			if regress > maxRegress {
				failures++
				fmt.Printf("GATE FAIL %s: mean ns/op %.0f -> %.0f (+%.1f%%, allowed %.1f%%)\n",
					e.Name, o.NsPerOp.Mean, e.NsPerOp.Mean, regress, maxRegress)
			}
		}
		speed := "-"
		if e.NsPerOp.Mean > 0 {
			speed = fmt.Sprintf("%.2fx", o.NsPerOp.Mean/e.NsPerOp.Mean)
		}
		oa, na := "-", "-"
		factor := "-"
		if o.AllocsPerOp != nil && e.AllocsPerOp != nil {
			oa = fmt.Sprintf("%.0f", *o.AllocsPerOp)
			na = fmt.Sprintf("%.0f", *e.AllocsPerOp)
			if *e.AllocsPerOp > 0 {
				factor = fmt.Sprintf("%.1fx", *o.AllocsPerOp / *e.AllocsPerOp)
			} else if *o.AllocsPerOp > 0 {
				factor = "inf"
			} else {
				factor = "1.0x"
			}
		}
		fmt.Printf("%-44s %14.0f %14.0f %9s %12s %12s %9s\n",
			e.Name, o.NsPerOp.Mean, e.NsPerOp.Mean, speed, oa, na, factor)
	}
	gated := 0
	for _, e := range oldList {
		matched := gateRe != nil && gateRe.MatchString(e.Name)
		if matched {
			gated++
		}
		if !seen[e.Pkg+"\t"+e.Name] {
			fmt.Printf("%-44s %14.0f %14s\n", e.Name, e.NsPerOp.Mean, "(gone)")
			if matched {
				failures++
				fmt.Printf("GATE FAIL %s: missing from %s\n", e.Name, newPath)
			}
		}
	}
	if gateRe != nil && gated == 0 {
		failures++
		fmt.Printf("GATE FAIL -gate %q matches no benchmark in %s\n", gateRe, oldPath)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "decor-benchjson: %d gate failure(s)\n", failures)
		return 1
	}
	return 0
}
