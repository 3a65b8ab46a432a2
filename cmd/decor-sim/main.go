// Command decor-sim runs a single DECOR deployment/restoration scenario
// and prints a report.
//
// Examples:
//
//	decor-sim -k 3 -method voronoi-big
//	decor-sim -k 2 -method grid-small -fail-area 24 -restore voronoi-small
//	decor-sim -k 1 -method centralized -ascii
//	decor-sim -method grid-small,voronoi-big
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"decor"
	"decor/internal/geom"
	"decor/internal/obs"
	"decor/internal/shard"
	"decor/internal/tour"
)

func main() {
	var (
		fieldSide  = flag.Float64("field", 100, "edge length of the square field")
		k          = flag.Int("k", 3, "coverage requirement k")
		rs         = flag.Float64("rs", 4, "sensing radius")
		rc         = flag.Float64("rc", 0, "communication radius (default 2*rs)")
		points     = flag.Int("points", 2000, "low-discrepancy sample points")
		gen        = flag.String("gen", "halton", "point generator: halton|hammersley|sobol|uniform|jittered|lhs")
		initial    = flag.Int("initial", 200, "randomly pre-deployed sensors")
		method     = flag.String("method", "voronoi-big", "deployment method, or a comma-separated list run as independent scenarios: "+strings.Join(decor.MethodNames(), "|"))
		seed       = flag.Uint64("seed", 1, "random seed")
		failArea   = flag.Float64("fail-area", 0, "after deploying, destroy a disc of this radius at the field center")
		failRandom = flag.Float64("fail-random", 0, "after deploying, destroy this fraction of nodes at random")
		restore    = flag.String("restore", "", "method used to restore coverage after failures (default: same as -method)")
		ascii      = flag.Bool("ascii", false, "print an ASCII rendering of the final field")
		showTour   = flag.Bool("tour", false, "plan and report the deployment robot's tour over the placed sensors")
		ckTo       = flag.String("checkpoint-to", "", "write the final field (sensors + RNG state) to this snapshot file")
		resumeFrom = flag.String("resume-from", "", "start from a field snapshot instead of a fresh scatter; -field/-k/-rs/-points/-gen/-seed/-initial are taken from the snapshot")
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

	methods := strings.Split(*method, ",")
	for i := range methods {
		methods[i] = strings.TrimSpace(methods[i])
	}
	if (*ckTo != "" || *resumeFrom != "") && len(methods) > 1 {
		fmt.Fprintln(os.Stderr, "decor-sim: -checkpoint-to/-resume-from need a single -method")
		os.Exit(2)
	}
	sc := scenario{
		fieldSide: *fieldSide, k: *k, rs: *rs, rc: *rc,
		points: *points, gen: *gen, initial: *initial, seed: *seed,
		failArea: *failArea, failRandom: *failRandom, restore: *restore,
		ascii: *ascii, showTour: *showTour,
		checkpointTo: *ckTo, resumeFrom: *resumeFrom,
	}

	// Each method is an independent scenario over its own deployment, so
	// a list fans out across GOMAXPROCS workers; buffered reports print in
	// list order, making the output independent of the worker count. Jobs
	// write only to their own result slots.
	outs := make([]string, len(methods))
	errs := make([]error, len(methods))
	shard.ForEach(len(methods), func(i int) {
		var b strings.Builder
		errs[i] = sc.run(&b, methods[i])
		outs[i] = b.String()
	})
	for i := range methods {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(outs[i])
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, errs[i])
			os.Exit(2)
		}
	}
}

// scenario is one full deploy/fail/restore run, written to w.
type scenario struct {
	fieldSide, rs, rc    float64
	k, points, initial   int
	gen                  string
	seed                 uint64
	failArea, failRandom float64
	restore              string
	ascii, showTour      bool
	checkpointTo         string
	resumeFrom           string
}

// buildField constructs the scenario's starting deployment: a fresh
// scatter, or — with -resume-from — the exact field a previous run
// checkpointed, mid-stream RNG included, so continuing a run here is
// indistinguishable from never having stopped it.
func (s scenario) buildField(w io.Writer) (*decor.Deployment, error) {
	if s.resumeFrom != "" {
		data, err := os.ReadFile(s.resumeFrom)
		if err != nil {
			return nil, err
		}
		d, err := decor.RestoreDeployment(data)
		if err != nil {
			return nil, fmt.Errorf("decor-sim: resume: %w", err)
		}
		p := d.Params()
		fmt.Fprintf(w, "resumed field %.0fx%.0f, %d points (%s), rs=%g, k=%d, %d sensors\n",
			p.FieldSide, p.FieldSide, p.NumPoints, p.Generator, p.Rs, p.K, d.NumSensors())
		return d, nil
	}
	d, err := decor.NewDeployment(decor.Params{
		FieldSide: s.fieldSide, K: s.k, Rs: s.rs, Rc: s.rc,
		NumPoints: s.points, Generator: s.gen, Seed: s.seed,
	})
	if err != nil {
		return nil, err
	}
	d.ScatterRandom(s.initial)
	fmt.Fprintf(w, "field %.0fx%.0f, %d points (%s), rs=%g, k=%d, %d initial sensors\n",
		s.fieldSide, s.fieldSide, s.points, s.gen, s.rs, s.k, s.initial)
	return d, nil
}

func (s scenario) run(w io.Writer, method string) error {
	d, err := s.buildField(w)
	if err != nil {
		return err
	}
	if s.resumeFrom != "" {
		// Geometry flags are snapshot-owned on resume.
		p := d.Params()
		s.k, s.fieldSide = p.K, p.FieldSide
	}
	fmt.Fprintf(w, "initial coverage: %.1f%% k-covered, %.1f%% 1-covered\n",
		100*d.Coverage(s.k), 100*d.Coverage(1))

	rep, err := d.Deploy(method)
	if err != nil {
		return err
	}
	printReport(w, "deployment", rep, d, s.k)
	if s.showTour {
		printTour(w, rep)
	}

	if s.failArea > 0 || s.failRandom > 0 {
		if s.failArea > 0 {
			dead := d.FailArea(decor.Point{X: s.fieldSide / 2, Y: s.fieldSide / 2}, s.failArea)
			fmt.Fprintf(w, "\narea failure: disc r=%g destroyed %d sensors\n", s.failArea, len(dead))
		}
		if s.failRandom > 0 {
			dead := d.FailRandom(s.failRandom)
			fmt.Fprintf(w, "\nrandom failure: destroyed %d sensors (%.0f%%)\n", len(dead), 100*s.failRandom)
		}
		fmt.Fprintf(w, "post-failure coverage: %.1f%% k-covered, %.1f%% 1-covered\n",
			100*d.Coverage(s.k), 100*d.Coverage(1))
		rm := s.restore
		if rm == "" {
			rm = method
		}
		rrep, err := d.Deploy(rm)
		if err != nil {
			return err
		}
		printReport(w, "restoration", rrep, d, s.k)
	}

	if s.ascii {
		fmt.Fprintln(w)
		fmt.Fprint(w, d.ASCII(100))
	}
	if s.checkpointTo != "" {
		if err := os.WriteFile(s.checkpointTo, d.Snapshot(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nfield snapshot (%d sensors) written to %s\n",
			d.NumSensors(), s.checkpointTo)
	}
	return nil
}

// printTour plans the deployment robot's route over the new sensors
// (nearest-neighbor + 2-opt) from the field origin.
func printTour(w io.Writer, rep decor.Report) {
	sites := make([]geom.Point, len(rep.Placements))
	for i, p := range rep.Placements {
		sites[i] = geom.Point(p)
	}
	t := tour.Plan(geom.Point{}, sites, 0)
	fmt.Fprintf(w, "  robot tour: %d stops, %.1f field units of travel\n",
		len(t.Stops), t.Length())
}

func printReport(w io.Writer, phase string, rep decor.Report, d *decor.Deployment, k int) {
	fmt.Fprintf(w, "\n%s with %s:\n", phase, rep.Method)
	fmt.Fprintf(w, "  placed %d sensors (%d total), %d rounds, %d seeded\n",
		rep.Placed, rep.TotalSensors, rep.Rounds, rep.Seeded)
	fmt.Fprintf(w, "  messages: %d total, %.1f per cell\n", rep.Messages, rep.MessagesPerCell)
	fmt.Fprintf(w, "  coverage: %.1f%% k-covered; redundant sensors: %d\n",
		100*d.Coverage(k), len(d.Redundant()))
}
