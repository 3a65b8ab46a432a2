// Command decor-chaos runs seeded chaos scenarios against the DECOR
// protocols and reports an invariant verdict per run. It is the replay
// tool for any failing seed surfaced by the property tests, the fuzzer,
// or `make chaos-smoke`: the same arch+seed (plus any plan overrides)
// reproduces the identical trace, byte for byte. A checkpoint
// (-checkpoint-to) is therefore just the scenario and its cut;
// -resume-from re-runs the scenario and refuses a checkpoint whose trace
// differs at the cut.
//
// Examples:
//
//	decor-chaos -arch grid -seed 7
//	decor-chaos -arch all -seeds 16 -json
//	decor-chaos -arch voronoi -seed 3 -dup-prob 0.4 -loss 0.2
//	decor-chaos -arch selfheal -seed 9 -no-verify
//	decor-chaos -arch selfheal -seed 9 -checkpoint-every 25 -checkpoint-to run.snap
//	decor-chaos -resume-from run.snap
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
		arch     = flag.String("arch", "grid", "architecture: grid|voronoi|selfheal|all")
		seed     = flag.Uint64("seed", 1, "first seed")
		seeds    = flag.Int("seeds", 1, "number of consecutive seeds to sweep")
		jsonOut  = flag.Bool("json", false, "emit one JSON verdict per line")
		noVerify = flag.Bool("no-verify", false, "skip the determinism double-run")

		// Plan overrides; negative means keep the seed-derived value.
		delayProb = flag.Float64("delay-prob", -1, "override message delay probability")
		delayMax  = flag.Float64("delay-max", -1, "override maximum delay jitter (virtual seconds)")
		dupProb   = flag.Float64("dup-prob", -1, "override message duplication probability")
		until     = flag.Float64("until", -1, "override probabilistic-fault horizon")
		loss      = flag.Float64("loss", -1, "override uniform loss rate")
		burst     = flag.String("burst", "", "override burst channel as pG2B,pB2G,lossGood,lossBad ('off' to disable)")

		// Checkpoint/resume (single run only): a checkpoint is the scenario
		// and its cut (the trace's line count and digest at a virtual-time
		// boundary). A resumed run re-runs the scenario, refuses a record
		// whose trace differs at the cut, and finishes with the verdict and
		// trace hash the uninterrupted run produced.
		ckEvery    = flag.Float64("checkpoint-every", 0, "emit a checkpoint every this many virtual seconds (requires -checkpoint-to)")
		ckTo       = flag.String("checkpoint-to", "", "file holding the latest checkpoint (atomically replaced at each boundary)")
		resumeFrom = flag.String("resume-from", "", "re-run a checkpoint's scenario, checking its trace at the cut; scenario flags are ignored, -checkpoint-* apply past the cut")
	)
	flag.Parse()

	if (*ckEvery > 0) != (*ckTo != "") {
		fmt.Fprintln(os.Stderr, "decor-chaos: -checkpoint-every and -checkpoint-to must be used together")
		os.Exit(2)
	}
	var ckFn chaos.CheckpointFunc
	if *ckTo != "" {
		ckFn = checkpointWriter(*ckTo)
	}

	if *resumeFrom != "" {
		data, err := os.ReadFile(*resumeFrom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decor-chaos: %v\n", err)
			os.Exit(2)
		}
		v, err := chaos.Resume(data, sim.Time(*ckEvery), ckFn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decor-chaos: resume: %v\n", err)
			os.Exit(2)
		}
		report(v, true, *jsonOut, false)
		if !v.OK {
			os.Exit(1)
		}
		return
	}

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
	if *ckEvery > 0 {
		if len(scs) != 1 {
			fmt.Fprintln(os.Stderr, "decor-chaos: -checkpoint-every needs a single run (one arch, -seeds 1)")
			os.Exit(2)
		}
		v := chaos.RunCheckpointed(scs[0], sim.Time(*ckEvery), ckFn)
		report(v, true, *jsonOut, false)
		if !v.OK {
			os.Exit(1)
		}
		return
	}

	failures := 0
	for _, res := range chaos.Sweep(scs, !*noVerify) {
		if !res.Verdict.OK || !res.ReplayOK {
			failures++
		}
		report(res.Verdict, res.ReplayOK, *jsonOut, !*noVerify)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "decor-chaos: %d failing run(s)\n", failures)
		os.Exit(1)
	}
}

// checkpointWriter persists each checkpoint over the previous one via
// write-then-rename, so a kill mid-write leaves the last good record
// intact and -resume-from always reads a sealed envelope.
func checkpointWriter(path string) chaos.CheckpointFunc {
	return func(at sim.Time, data []byte) {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "decor-chaos: checkpoint at t=%v: %v\n", at, err)
			return
		}
		if err := os.Rename(tmp, path); err != nil {
			fmt.Fprintf(os.Stderr, "decor-chaos: checkpoint at t=%v: %v\n", at, err)
		}
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

func report(v chaos.Verdict, replayOK, jsonOut, verified bool) {
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
	if verified {
		if replayOK {
			fmt.Printf(" replay=identical")
		} else {
			fmt.Printf(" replay=DIVERGED")
		}
	}
	fmt.Println()
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
