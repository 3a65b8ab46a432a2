package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// writeEntries writes a benchmark JSON document of name → mean ns/op.
func writeEntries(t *testing.T, path string, means map[string]float64) {
	t.Helper()
	var list []*Entry
	for name, mean := range means {
		list = append(list, &Entry{Pkg: "decor/x", Name: name, Samples: 1, NsPerOp: Stat{Min: mean, Mean: mean, Max: mean}})
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
	base := map[string]float64{
		"BenchmarkPlace/pts=1e5/grid":        100,
		"BenchmarkPlace/pts=1e5/centralized": 200,
		"BenchmarkPlace/pts=1e6/grid":        1000,
	}
	for _, tc := range []struct {
		name  string
		gate  string
		fresh map[string]float64
		want  int
	}{
		{"no gate reports only", "", map[string]float64{"BenchmarkOther": 1}, 0},
		{"within band", `pts=1e5/(grid|centralized)$`,
			map[string]float64{"BenchmarkPlace/pts=1e5/grid": 120, "BenchmarkPlace/pts=1e5/centralized": 210}, 0},
		{"regressed", `pts=1e5/(grid|centralized)$`,
			map[string]float64{"BenchmarkPlace/pts=1e5/grid": 160, "BenchmarkPlace/pts=1e5/centralized": 210}, 1},
		{"ungated entries may be absent", `pts=1e5/grid$`,
			map[string]float64{"BenchmarkPlace/pts=1e5/grid": 100}, 0},
		{"new gated entry beside compared ones", `pts=1e5/(grid|centralized|voronoi)$`,
			map[string]float64{"BenchmarkPlace/pts=1e5/grid": 100, "BenchmarkPlace/pts=1e5/centralized": 200, "BenchmarkPlace/pts=1e5/voronoi": 9}, 0},
		{"gated baseline entry missing", `pts=1e5/(grid|centralized)$`,
			map[string]float64{"BenchmarkPlace/pts=1e5/grid": 100}, 1},
		{"renamed variants", `pts=1e5/(grid|centralized)$`,
			map[string]float64{"BenchmarkPlace/pts=1e5/grid-seq": 100, "BenchmarkPlace/pts=1e5/centralized-tiled": 200}, 1},
		{"regexp matches nothing", `pts=1e5/grid-flat$`,
			map[string]float64{"BenchmarkPlace/pts=1e5/grid-flat": 100}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
			writeEntries(t, oldPath, base)
			writeEntries(t, newPath, tc.fresh)
			var re *regexp.Regexp
			if tc.gate != "" {
				re = regexp.MustCompile(tc.gate)
			}
			if got := runDiff(oldPath, newPath, re, 25); got != tc.want {
				t.Fatalf("runDiff exit = %d, want %d", got, tc.want)
			}
		})
	}
}
