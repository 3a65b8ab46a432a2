// Command decor-bench regenerates the paper's evaluation figures
// (Figures 7–14) as text tables or CSV.
//
// Examples:
//
//	decor-bench -fig all            # full paper parameters (takes a while)
//	decor-bench -fig fig8 -quick    # reduced field for a fast smoke run
//	decor-bench -fig fig10 -csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"decor/internal/experiment"
	"decor/internal/metrics"
	"decor/internal/obs"
	"decor/internal/report"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: fig7..fig14, an extension (ext-area, ext-cell, ext-gen, ext-corr, ext-conn, ext-energy, ext-rel), all, or \"ext\" or \"summary\"")
		quick      = flag.Bool("quick", false, "use the reduced test configuration")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		runs       = flag.Int("runs", 0, "override the number of averaged runs (default: paper's 5)")
		seed       = flag.Uint64("seed", 0, "override the base seed")
		gen        = flag.String("gen", "", "override the point generator (halton|hammersley|...)")
		outDir     = flag.String("out", "", "also write each figure to <out>/<fig>.txt (or .csv with -csv)")
		reportPath = flag.String("report", "", "write the complete Markdown reproduction report to this file and exit")
		deployK    = flag.Int("deployments", 0, "run each method once at this coverage requirement and report per-deployment metrics (0 = off)")
		jsonOut    = flag.String("json", "", `with -deployments, write the deployments as a JSON array to this file ("-" = stdout)`)
		parallel   = flag.Int("parallel", 0, "worker goroutines for the independent experiment cells (0 = GOMAXPROCS); output is identical for any value")
	)
	var ofl obs.RunFlags
	ofl.Register(flag.CommandLine)
	flag.Parse()
	if err := ofl.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := ofl.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	cfg := experiment.Default()
	if *quick {
		cfg = experiment.Quick()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}
	if *gen != "" {
		cfg.Generator = *gen
	}
	if *parallel > 0 {
		cfg.Parallel = *parallel
	}

	if *deployK > 0 {
		start := time.Now()
		deps := experiment.Deployments(cfg, *deployK)
		for _, d := range deps {
			fmt.Println(d)
		}
		fmt.Printf("# elapsed: %v\n", time.Since(start).Round(time.Millisecond))
		if *jsonOut != "" {
			var w io.Writer = os.Stdout
			if *jsonOut != "-" {
				f, err := os.Create(*jsonOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				defer f.Close()
				w = f
			}
			if err := metrics.WriteJSON(w, deps); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		start := time.Now()
		if err := report.Write(f, cfg, report.Full()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s (%v)\n", *reportPath, time.Since(start).Round(time.Millisecond))
		return
	}
	if *fig == "summary" {
		start := time.Now()
		fmt.Print(experiment.SummaryTable(experiment.Summary(cfg)))
		fmt.Printf("# elapsed: %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	var ids []string
	switch *fig {
	case "all":
		ids = experiment.AllIDs()
	case "ext":
		ids = experiment.ExtIDs()
	default:
		ids = strings.Split(*fig, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		f, err := experiment.ByID(id, cfg)
		if err != nil {
			f, err = experiment.ExtByID(id, cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var body string
		if *csv {
			body = f.CSV()
			fmt.Print(body)
		} else {
			body = f.Table()
			fmt.Print(body)
			fmt.Printf("# elapsed: %v\n", time.Since(start).Round(time.Millisecond))
		}
		if *outDir != "" {
			ext := ".txt"
			if *csv {
				ext = ".csv"
			}
			path := filepath.Join(*outDir, f.ID+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Println()
	}
}
