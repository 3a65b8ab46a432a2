package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fig is one benchmark's min ns/op, allocs/op and B/op.
type fig struct{ ns, allocs, bytes float64 }

// writeEntries writes a benchmark JSON document of name → fig.
func writeEntries(t *testing.T, path string, figs map[string]fig) {
	t.Helper()
	var list []*Entry
	for name, f := range figs {
		allocs, bytes := f.allocs, f.bytes
		list = append(list, &Entry{Pkg: "decor/x", Name: name, Samples: 1,
			NsPerOp: Stat{Min: f.ns, Mean: f.ns, Max: f.ns}, AllocsPerOp: &allocs, BytesPerOp: &bytes})
	}
	b, err := json.Marshal(list)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunDiffGate(t *testing.T) {
	const (
		grid  = "BenchmarkPlace/pts=1e5/grid"
		centr = "BenchmarkPlace/pts=1e5/centralized"
	)
	base := map[string]fig{
		grid:                          {100, 10, 1000},
		centr:                         {200, 20, 2000},
		"BenchmarkPlace/pts=1e6/grid": {1000, 100, 10000},
	}
	both := grid + " ns band 25\n" + centr + " ns band 25\n"
	for _, tc := range []struct {
		name  string
		rows  string
		fresh map[string]fig
		want  int // failing rows
	}{
		{"no gate reports only", "", map[string]fig{"BenchmarkOther": {ns: 1}}, 0},
		{"within band", both, map[string]fig{grid: {ns: 120}, centr: {ns: 210}}, 0},
		{"regressed", both, map[string]fig{grid: {ns: 160}, centr: {ns: 210}}, 1},
		{"ungated entries may be absent", grid + " ns band 25\n", map[string]fig{grid: {ns: 100}}, 0},
		// A row needs a baseline to compare with: gating a new bench
		// means committing its baseline in the same change.
		{"new gated entry beside compared ones", both + "BenchmarkPlace/pts=1e5/voronoi ns band 25\n",
			map[string]fig{grid: {ns: 100}, centr: {ns: 200}, "BenchmarkPlace/pts=1e5/voronoi": {ns: 9}}, 1},
		{"gated baseline entry missing", both, map[string]fig{grid: {ns: 100}}, 1},
		{"renamed variants", both,
			map[string]fig{"BenchmarkPlace/pts=1e5/grid-seq": {ns: 100}, "BenchmarkPlace/pts=1e5/centralized-tiled": {ns: 200}}, 2},
		{"regexp matches nothing", "BenchmarkPlace/pts=1e5/grid-flat ns band 25\n",
			map[string]fig{"BenchmarkPlace/pts=1e5/grid-flat": {ns: 100}}, 1},
		{"exact fails on drift either way", grid + " allocs exact\n" + centr + " bytes exact\n",
			map[string]fig{grid: {100, 11, 1000}, centr: {200, 20, 1999}}, 2},
		{"bytes band", grid + " bytes band 10\n" + centr + " bytes band 10\n",
			map[string]fig{grid: {100, 10, 1100}, centr: {200, 20, 2201}}, 1},
		{"ceiling and ratio hold", grid + " allocs ceiling 10\n" + centr + " allocs ratio 2 " + grid + "\n",
			map[string]fig{grid: {100, 10, 1000}, centr: {200, 20, 2000}}, 0},
		{"ceiling and ratio broken", grid + " allocs ceiling 10\n" + centr + " allocs ratio 2 " + grid + "\n",
			map[string]fig{grid: {100, 11, 1000}, centr: {200, 21, 2000}}, 2},
		{"ratio partner missing", centr + " allocs ratio 2 " + grid + "\n",
			map[string]fig{centr: {200, 20, 2000}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, freshDir := t.TempDir(), t.TempDir()
			table := filepath.Join(dir, "gates.txt")
			if err := os.WriteFile(table, []byte("run bench.json 1x 3 BenchmarkPlace ./internal/core/\n"+tc.rows), 0o644); err != nil {
				t.Fatal(err)
			}
			writeEntries(t, filepath.Join(dir, "bench.json"), base)
			writeEntries(t, filepath.Join(freshDir, "bench.json"), tc.fresh)
			var out strings.Builder
			got, err := runGate(table, freshDir, &out)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("runGate failures = %d, want %d\n%s", got, tc.want, out.String())
			}
		})
	}
}

func TestReadTableRejectsMalformedRows(t *testing.T) {
	for _, body := range []string{
		"BenchmarkX ns band 10\n",      // before any run line
		"run a.json 1x 3 BenchmarkX\n", // no package
		"run a.json 1x 3 BenchmarkX ./x/\nBenchmarkX ms band 10\n",
		"run a.json 1x 3 BenchmarkX ./x/\nBenchmarkX ns band\n",
		"run a.json 1x 3 BenchmarkX ./x/\nBenchmarkX ns exact 3\n",
		"run a.json 1x 3 BenchmarkX ./x/\nBenchmarkX ns ratio 10\n",
		"run a.json 1x 3 BenchmarkX ./x/\nBenchmarkX ns ceiling ten\n",
	} {
		path := filepath.Join(t.TempDir(), "gates.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readTable(path); err == nil {
			t.Errorf("readTable accepted %q", body)
		}
	}
}

func TestParseKeepsMinimumAllocsAndBytes(t *testing.T) {
	in := `pkg: decor/internal/service
BenchmarkServeRepairCacheHit-2   50   500 ns/op   30328 B/op   10 allocs/op
BenchmarkServeRepairCacheHit-2   50   400 ns/op   31817 B/op   10 allocs/op
BenchmarkServeRepairCacheHit-2   50   600 ns/op   33871 B/op   11 allocs/op
`
	list, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("got %d entries, want 1", len(list))
	}
	e := list[0]
	if e.Samples != 3 || e.NsPerOp != (Stat{Min: 400, Mean: 500, Max: 600}) {
		t.Errorf("samples %d, ns/op %+v; want 3 samples of min 400, mean 500, max 600", e.Samples, e.NsPerOp)
	}
	if *e.BytesPerOp != 30328 || *e.AllocsPerOp != 10 {
		t.Errorf("B/op %g, allocs/op %g; want the minimum 30328 and 10", *e.BytesPerOp, *e.AllocsPerOp)
	}
}

// selects reports whether `go test -bench selection` runs the benchmark
// name: as in package testing, each '/'-separated element of selection
// must match the element of name at the same depth.
func selects(selection, name string) bool {
	elems := strings.Split(name, "/")
	for i, pat := range strings.Split(selection, "/") {
		if i < len(elems) && !regexp.MustCompile(pat).MatchString(elems[i]) {
			return false
		}
	}
	return true
}

const committedTable = "../../BENCH_gates.txt"

// TestCommittedGateTable holds the committed table to the committed
// BENCH files: every row's benches are selected by its run line and
// present in its file, and every ceiling and ratio holds on the
// committed numbers (gating the baselines against themselves).
func TestCommittedGateTable(t *testing.T) {
	runs, err := readTable(committedTable)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		for _, r := range run.rows {
			for _, name := range []string{r.bench, r.other} {
				if name != "" && !selects(run.selection, name) {
					t.Errorf("%s: row bench %s is not selected by -bench %q", run.file, name, run.selection)
				}
			}
		}
	}
	var out strings.Builder
	if n, err := runGate(committedTable, filepath.Dir(committedTable), &out); err != nil || n != 0 {
		t.Fatalf("committed baselines against themselves: %d failures, err %v\n%s", n, err, out.String())
	}
}

// TestGateNamesTheInjectedAlloc adds one alloc to one bench of a copy
// of the committed baselines: exactly that row fails, naming the bench.
func TestGateNamesTheInjectedAlloc(t *testing.T) {
	runs, err := readTable(committedTable)
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	for _, run := range runs {
		list, err := loadEntries(filepath.Join(filepath.Dir(committedTable), run.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range list {
			if e.Name == "BenchmarkServeSSEFrame" {
				*e.AllocsPerOp++
			}
		}
		b, err := json.Marshal(list)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fresh, run.file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	n, err := runGate(committedTable, fresh, &out)
	if err != nil {
		t.Fatal(err)
	}
	var fails []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "FAIL") {
			fails = append(fails, line)
		}
	}
	if n != 1 || len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkServeSSEFrame ") || !strings.Contains(fails[0], " allocs ") {
		t.Fatalf("got %d failures %q, want one BenchmarkServeSSEFrame allocs row\n%s", n, fails, out.String())
	}
}
