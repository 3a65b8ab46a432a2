// Command decor-field renders the paper's illustration figures: the
// Halton-approximated field (Fig. 4), an example DECOR deployment
// (Fig. 5) and an uncovered disaster area (Fig. 6), as SVG or ASCII.
//
// Examples:
//
//	decor-field -what points -o fig4.svg
//	decor-field -what deploy -ascii
//	decor-field -what failure -o fig6.svg
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/experiment"
	"decor/internal/failure"
	"decor/internal/geom"
	"decor/internal/obs"
	"decor/internal/render"
	"decor/internal/rng"
	"decor/internal/tour"
	"decor/internal/voronoi"
)

func main() {
	var (
		what   = flag.String("what", "points", "points (fig4) | deploy (fig5) | failure (fig6) | voronoi | restore")
		out    = flag.String("o", "", "write output to this file (default: stdout)")
		ascii  = flag.Bool("ascii", false, "emit ASCII art instead of SVG")
		usePNG = flag.Bool("png", false, "emit PNG (with coverage heatmap) instead of SVG")
		k      = flag.Int("k", 1, "coverage requirement for deploy/failure")
		seed   = flag.Uint64("seed", 1, "random seed")
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
	cfg.Seed = *seed
	var m *coverage.Map
	opts := render.SVGOptions{ShowPoints: true}
	switch *what {
	case "points":
		m = coverage.NewMap(cfg.PointSet(), *k)
	case "voronoi":
		m = cfg.NewMap(*k, 0)
		(core.VoronoiDECOR{Rc: 2 * cfg.Rs}).Deploy(m, rng.New(cfg.Seed+7), core.Options{})
		var sites []geom.Point
		for _, id := range m.SensorIDs() {
			p, _ := m.SensorPos(id)
			sites = append(sites, p)
		}
		opts.ShowSensors = true
		opts.VoronoiCells = voronoi.Diagram(sites, m.Field())
	case "deploy":
		m = cfg.NewMap(*k, 0)
		meth := core.VoronoiDECOR{Rc: 2 * cfg.Rs}
		meth.Deploy(m, rng.New(cfg.Seed+7), core.Options{})
		opts.ShowSensors = true
	case "failure":
		m = cfg.NewMap(*k, 0)
		(core.Centralized{}).Deploy(m, rng.New(cfg.Seed+7), core.Options{})
		disk := cfg.AreaFailureDisk()
		failure.Apply(m, (failure.Area{Disk: disk}).Select(m, nil))
		opts.ShowSensors = true
		opts.FailureDisk = disk
	case "restore":
		// The disaster, the repair, and the robot's route through it.
		m = cfg.NewMap(*k, 0)
		(core.Centralized{}).Deploy(m, rng.New(cfg.Seed+7), core.Options{})
		disk := cfg.AreaFailureDisk()
		failure.Apply(m, (failure.Area{Disk: disk}).Select(m, nil))
		res := (core.VoronoiDECOR{Rc: 2 * cfg.Rs}).Deploy(m, rng.New(cfg.Seed+8), core.Options{})
		sites := make([]geom.Point, len(res.Placed))
		for i, pl := range res.Placed {
			sites[i] = pl.Pos
		}
		route := tour.Plan(m.Field().Min, sites, 0)
		opts.ShowSensors = true
		opts.FailureDisk = disk
		opts.Tour = append([]geom.Point{route.Start}, route.Stops...)
	default:
		fmt.Fprintf(os.Stderr, "unknown -what %q\n", *what)
		os.Exit(2)
	}

	var doc []byte
	switch {
	case *ascii:
		doc = []byte(render.ASCII(m, 100))
	case *usePNG:
		var buf bytes.Buffer
		err := render.PNG(&buf, m, render.PNGOptions{
			ShowPoints: false, ShowSensors: true, Heatmap: true,
			FailureDisk: opts.FailureDisk,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		doc = buf.Bytes()
	default:
		doc = []byte(render.SVG(m, opts))
	}
	if *out == "" {
		os.Stdout.Write(doc)
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d sensors, %.1f%% %d-covered)\n",
		*out, m.NumSensors(), 100*m.CoverageFrac(*k), *k)
}
