package chaos

import (
	"encoding/json"
	"runtime"
	"testing"
)

// goldenTraceHashes are the full SHA-256 trace hashes of the canonical
// scenarios, captured from `decor-chaos -arch all -seeds 4 -json` BEFORE
// the engine overhaul (4-ary queue, pooling, coalesced obs). The
// overhauled engine must replay every trace byte-identically: the event
// order is fixed by the (time, seq) total order, so any deviation here
// means the queue, the fault delivery path, or the RNG draw order
// changed observable behaviour.
var goldenTraceHashes = map[string]map[uint64]string{
	ArchGrid: {
		1: "4aa9662443f11bb313f1799809fd6d1ff71ad76404cf1bbd3496510e1b7daed3",
		2: "684954241625af6ea240dc83307a460b732b693982ca32d3fe0fdfeee40c72fe",
		3: "688593b2a44d03509588b92e670cc6a7c200ad8c2329a63f6bca9552868ec72b",
		4: "4fbfa96146d81ad0aec8cbbd947572e83b1574a9be8b21431f32544320dede28",
	},
	ArchVoronoi: {
		1: "25b1ccbeab577db0dd8f2cb4134f1ce6af50e3ed3473e8b46c99e20869df4bb4",
		2: "b8a030266f312f01b17493e9e248d9911f304019570de92eb31231290a0f9eb5",
		3: "28bfb0aaf564b35071c8722586ca3814d968caf12cbbf7cf5e21efc543224c66",
		4: "a6b7a9ac3179862d85ec206ae8dca1bc683b05cac371d53058205e0147e31cef",
	},
	ArchSelfheal: {
		1: "ed0fb69c713f6a2990ea346e1dc20d0348b29acf8abc1f50bb7c137106f7835b",
		2: "f9231f61eef5ac9eb7946970be0a26ac6b80d033e44969039335fb5337e26415",
		3: "cfb65eefa6e57e96be5286ca983315227f533921e5619a5b686383a4c9b48625",
		4: "91799d8c33fa4d3f4cf38e548ada2eda3bd465edc6079873c3222b529a22c67f",
	},
}

// TestTraceHashesMatchPreOverhaulGolden replays the canonical scenarios
// and compares against the pre-overhaul hashes above.
func TestTraceHashesMatchPreOverhaulGolden(t *testing.T) {
	for _, arch := range Archs() {
		for seed, want := range goldenTraceHashes[arch] {
			v := Run(DefaultScenario(arch, seed))
			if v.TraceHash != want {
				t.Errorf("%s seed %d: trace hash %s, pre-overhaul golden %s", arch, seed, v.TraceHash, want)
			}
		}
	}
}

// TestSweepParallelIdentical is the seed-sharding determinism property:
// the sweep's verdicts (including replay verification) must be
// byte-identical for any GOMAXPROCS.
func TestSweepParallelIdentical(t *testing.T) {
	var scs []Scenario
	for _, arch := range Archs() {
		for seed := uint64(1); seed <= 3; seed++ {
			scs = append(scs, DefaultScenario(arch, seed))
		}
	}
	marshal := func(rs []SweepResult) string {
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	sweep := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return marshal(Sweep(scs))
	}
	want := sweep(1)
	for _, procs := range []int{2, 4, 8} {
		if got := sweep(procs); got != want {
			t.Errorf("GOMAXPROCS=%d: sweep results diverged from sequential", procs)
		}
	}
}

// TestVerdictEqualityIsMeaningful guards the replay checks themselves:
// two DIFFERENT seeds must produce different verdicts, or comparing a
// run with its replay would vacuously pass.
func TestVerdictEqualityIsMeaningful(t *testing.T) {
	a := Run(DefaultScenario(ArchGrid, 1))
	b := Run(DefaultScenario(ArchGrid, 2))
	if a.TraceHash == b.TraceHash {
		t.Fatal("distinct seeds produced identical trace hashes")
	}
}
