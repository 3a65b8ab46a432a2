// Command decor-chaos runs seeded chaos scenarios against the DECOR
// protocols and reports an invariant verdict per run. Each run is made
// twice, and a verdict that differs between the two is a failure. It is
// the replay tool for any failing seed surfaced by the property tests,
// the fuzzer, or `make chaos-smoke`: the same arch+seed (plus any plan
// overrides) reproduces the identical trace, byte for byte.
//
// Examples:
//
//	decor-chaos -arch grid -seed 7
//	decor-chaos -arch all -seeds 16 -json
//	decor-chaos -arch voronoi -seed 3 -dup-prob 0.4 -loss 0.2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"decor/internal/chaos"
	"decor/internal/obs"
	"decor/internal/sim"
)

func main() {
	var (
		arch    = flag.String("arch", "grid", "architecture: grid|voronoi|selfheal|all")
		seed    = flag.Uint64("seed", 1, "first seed")
		seeds   = flag.Int("seeds", 1, "number of consecutive seeds to sweep")
		jsonOut = flag.Bool("json", false, "emit one JSON verdict per line")

		// Plan overrides; negative means keep the seed-derived value.
		delayProb = flag.Float64("delay-prob", -1, "override message delay probability")
		delayMax  = flag.Float64("delay-max", -1, "override maximum delay jitter (virtual seconds)")
		dupProb   = flag.Float64("dup-prob", -1, "override message duplication probability")
		until     = flag.Float64("until", -1, "override probabilistic-fault horizon")
		loss      = flag.Float64("loss", -1, "override uniform loss rate")
		burst     = flag.String("burst", "", "override burst channel as pG2B,pB2G,lossGood,lossBad ('off' to disable)")
	)
	flag.Parse()

	archs := []string{*arch}
	if *arch == "all" {
		archs = chaos.Archs()
	}
	for _, a := range archs {
		valid := false
		for _, known := range chaos.Archs() {
			if a == known {
				valid = true
			}
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "decor-chaos: unknown arch %q (want %s|all)\n", a, strings.Join(chaos.Archs(), "|"))
			os.Exit(2)
		}
	}

	// Build the full (arch, seed) scenario list up front, then shard it
	// across GOMAXPROCS workers; results come back in list order, so
	// output is byte-identical to a sequential sweep.
	var scs []chaos.Scenario
	for _, a := range archs {
		for s := *seed; s < *seed+uint64(*seeds); s++ {
			sc := chaos.DefaultScenario(a, s)
			applyOverrides(&sc, *delayProb, *delayMax, *dupProb, *until, *loss, *burst)
			if err := sc.Plan.Validate(); err != nil {
				fmt.Fprintf(os.Stderr, "decor-chaos: invalid plan after overrides: %v\n", err)
				os.Exit(2)
			}
			scs = append(scs, sc)
		}
	}

	failures := 0
	for _, res := range chaos.Sweep(scs) {
		if !res.Verdict.OK || !res.ReplayOK {
			failures++
		}
		report(res.Verdict, res.ReplayOK, *jsonOut)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "decor-chaos: %d failing run(s)\n", failures)
		os.Exit(1)
	}
}

func applyOverrides(sc *chaos.Scenario, delayProb, delayMax, dupProb, until, loss float64, burst string) {
	if delayProb >= 0 {
		sc.Plan.DelayProb = delayProb
	}
	if delayMax >= 0 {
		sc.Plan.DelayMax = sim.Time(delayMax)
	}
	if dupProb >= 0 {
		sc.Plan.DupProb = dupProb
	}
	if until >= 0 {
		sc.Plan.Until = sim.Time(until)
	}
	if loss >= 0 {
		sc.Loss = loss
	}
	switch {
	case burst == "off":
		sc.Plan.Burst = nil
	case burst != "":
		var g sim.GilbertElliott
		if _, err := fmt.Sscanf(burst, "%f,%f,%f,%f", &g.PGoodToBad, &g.PBadToGood, &g.LossGood, &g.LossBad); err != nil {
			fmt.Fprintf(os.Stderr, "decor-chaos: bad -burst %q: %v\n", burst, err)
			os.Exit(2)
		}
		sc.Plan.Burst = &g
	}
}

func report(v chaos.Verdict, replayOK, jsonOut bool) {
	if jsonOut {
		out := struct {
			chaos.Verdict
			ReplayOK bool `json:"replay_ok"`
		}{v, replayOK}
		b, _ := json.Marshal(out)
		fmt.Println(string(b))
		return
	}
	status := "ok"
	if !v.OK {
		status = "FAIL"
	}
	fmt.Printf("%-8s seed=%-4d %-4s converged=%-5v placed=%-4d seeds=%d repairs=%-3d t=%.1f trace=%s…",
		v.Arch, v.Seed, status, v.Converged, v.Placed, v.Seeds, v.Repairs, float64(v.FinalTime), v.TraceHash[:12])
	if replayOK {
		fmt.Println(" replay=identical")
	} else {
		fmt.Println(" replay=DIVERGED")
	}
	for _, viol := range v.Violations {
		fmt.Printf("  violation: %s\n", viol)
	}
	if len(v.Timeline) > 0 {
		fmt.Printf("  flight timeline (last %d events):\n", len(v.Timeline))
		var sb strings.Builder
		obs.WriteTimeline(&sb, v.Timeline)
		for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
			fmt.Printf("    %s\n", line)
		}
	}
}
