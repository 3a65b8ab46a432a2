package chaos

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"decor/internal/rng"
	"decor/internal/sim"
	"decor/internal/snap"
)

// TestCheckpointedRunMatchesStraightRun: emitting checkpoints must not
// perturb the run at all — same trace hash, same verdict.
func TestCheckpointedRunMatchesStraightRun(t *testing.T) {
	for _, arch := range Archs() {
		for seed := uint64(1); seed <= 4; seed++ {
			sc := DefaultScenario(arch, seed)
			straight := Run(sc)
			snaps := 0
			ck := RunCheckpointed(sc, 7, func(at sim.Time, data []byte) {
				snaps++
				if len(data) == 0 {
					t.Fatalf("%s/%d: empty snapshot at t=%v", arch, seed, at)
				}
			})
			if !reflect.DeepEqual(straight, ck) {
				t.Errorf("%s/%d: checkpointed verdict diverged:\nstraight: %+v\ncheckpointed: %+v",
					arch, seed, straight, ck)
			}
			// A run that outlives the first boundary must have cut there.
			if snaps == 0 && straight.FinalTime > 7 {
				t.Errorf("%s/%d: no checkpoints emitted over %v virtual seconds",
					arch, seed, straight.FinalTime)
			}
		}
	}
}

// brokenSelfheal is a scenario that fails: every monitor crashes for
// good before any sensor does, so its verdict carries a timeline.
func brokenSelfheal() Scenario {
	sc := DefaultScenario(ArchSelfheal, 3)
	sc.Plan = sim.FaultPlan{Seed: 3}
	for _, id := range sc.ActorUniverse() {
		sc.Plan.Crashes = append(sc.Plan.Crashes, sim.Crash{Actor: id, At: 0.1})
	}
	return sc
}

// TestResumeParity is the differential suite checkpoints answer to:
// checkpoint -> resume must give the straight run's whole verdict, the
// flight timeline included, for every architecture at randomized
// checkpoint periods, against the same golden hashes replay_test.go
// pins.
func TestResumeParity(t *testing.T) {
	r := rng.New(0xc4ec9)
	var scs []Scenario
	for _, arch := range Archs() {
		for seed := uint64(1); seed <= 4; seed++ {
			scs = append(scs, DefaultScenario(arch, seed))
		}
	}
	scs = append(scs, brokenSelfheal())
	for _, sc := range scs {
		straight := Run(sc)

		// Randomized cut cadence: anywhere from sub-period to a large
		// fraction of the run.
		every := sim.Time(r.Range(0.3, 15))
		var snaps []snapAt
		_ = RunCheckpointed(sc, every, func(at sim.Time, data []byte) {
			snaps = append(snaps, snapAt{at, data})
		})
		if len(snaps) == 0 {
			if straight.FinalTime > every {
				t.Fatalf("%s/%d: no checkpoints at every=%v", sc.Arch, sc.Seed, every)
			}
			continue // run ended before the first boundary
		}

		// Resume from the first, a random middle, and the last cut.
		picks := []int{0, r.Intn(len(snaps)), len(snaps) - 1}
		for _, i := range picks {
			resumed, err := Resume(snaps[i].data, 0, nil)
			if err != nil {
				t.Fatalf("%s/%d: resume from t=%v: %v", sc.Arch, sc.Seed, snaps[i].at, err)
			}
			if !reflect.DeepEqual(straight, resumed) {
				t.Errorf("%s/%d: resume from t=%v diverged:\nstraight: %+v\nresumed:  %+v",
					sc.Arch, sc.Seed, snaps[i].at, straight, resumed)
			}
		}
	}
	if v := Run(brokenSelfheal()); v.OK || len(v.Timeline) == 0 {
		t.Fatalf("the failing scenario's verdict has no timeline to compare: ok=%v", v.OK)
	}
}

type snapAt struct {
	at   sim.Time
	data []byte
}

// TestResumeEmitsFurtherCheckpoints: a resumed run keeps checkpointing
// past its cut, and only past it, even where its period divides the cut
// (checkpoint-of-a-resume, the decor-chaos -resume-from +
// -checkpoint-every composition). Those records are byte-equal to the
// straight run's at the same boundaries and resume correctly too.
func TestResumeEmitsFurtherCheckpoints(t *testing.T) {
	sc := DefaultScenario(ArchSelfheal, 2)
	straight := Run(sc)

	var first []byte
	_ = RunCheckpointed(sc, 10, func(at sim.Time, data []byte) {
		if first == nil {
			first = data
		}
	})
	if first == nil {
		t.Fatal("no checkpoint emitted")
	}
	var want []snapAt
	_ = RunCheckpointed(sc, 5, func(at sim.Time, data []byte) {
		if at > 10 {
			want = append(want, snapAt{at, data})
		}
	})

	var later []snapAt
	v, err := Resume(first, 5, func(at sim.Time, data []byte) {
		later = append(later, snapAt{at, data})
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(straight, v) {
		t.Errorf("resume-with-checkpoints diverged from straight run")
	}
	if len(later) == 0 {
		t.Fatal("resumed run emitted no further checkpoints")
	}
	if !reflect.DeepEqual(later, want) {
		t.Errorf("resumed run's checkpoints differ from the straight run's past the cut")
	}
	for _, s := range later {
		if s.at <= 10 {
			t.Errorf("resumed run re-emitted pre-restore checkpoint at t=%v", s.at)
		}
		v2, err := Resume(s.data, 0, nil)
		if err != nil {
			t.Fatalf("second-generation resume from t=%v: %v", s.at, err)
		}
		if !reflect.DeepEqual(straight, v2) {
			t.Errorf("second-generation resume from t=%v diverged", s.at)
		}
	}
}

// TestResumeRejectsCorruption: every envelope violation maps to its
// typed snap error.
func TestResumeRejectsCorruption(t *testing.T) {
	sc := DefaultScenario(ArchGrid, 1)
	var data []byte
	_ = RunCheckpointed(sc, 7, func(_ sim.Time, d []byte) {
		if data == nil {
			data = d
		}
	})
	if data == nil {
		t.Fatal("no checkpoint emitted")
	}

	if _, err := Resume(nil, 0, nil); !errors.Is(err, snap.ErrMagic) {
		t.Errorf("nil: %v", err)
	}
	if _, err := Resume([]byte("junk that is long enough to not be a length failure.............."), 0, nil); !errors.Is(err, snap.ErrMagic) {
		t.Errorf("garbage: %v", err)
	}
	if _, err := Resume(data[:len(data)/2], 0, nil); err == nil {
		t.Error("truncated snapshot accepted")
	}

	bumped := append([]byte(nil), data...)
	bumped[4]++
	if _, err := Resume(bumped, 0, nil); !errors.Is(err, snap.ErrVersion) {
		t.Errorf("version bump: %v", err)
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x20
	if _, err := Resume(flipped, 0, nil); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("bit flip: %v", err)
	}
}

// TestResumeRefusesDivergentCheckpoint: a sealed, well-formed record
// whose trace at the cut is not the one this build produces there — an
// altered digest or line count, a cut the run never reaches, a record
// in the former full-state format — is refused with a typed snap error
// instead of resuming.
func TestResumeRefusesDivergentCheckpoint(t *testing.T) {
	var data []byte
	_ = RunCheckpointed(DefaultScenario(ArchGrid, 1), 7, func(_ sim.Time, d []byte) {
		if data == nil {
			data = d
		}
	})
	if data == nil {
		t.Fatal("no checkpoint emitted")
	}
	r, err := snap.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	js, at, lines, digest := r.Bytes(), r.F64(), r.Int(), r.Bytes()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	reseal := func(at float64, lines int, digest []byte) []byte {
		w := snap.NewWriter()
		w.Bytes(js)
		w.F64(at)
		w.Int(lines)
		w.Bytes(digest)
		return w.Seal()
	}
	if !bytes.Equal(reseal(at, lines, digest), data) {
		t.Fatal("resealing the unaltered record changed its bytes")
	}
	if _, err := Resume(reseal(at, lines, digest), 0, nil); err != nil {
		t.Fatalf("unaltered reseal refused: %v", err)
	}

	altered := append([]byte(nil), digest...)
	altered[0] ^= 1
	fullState, err := os.ReadFile("testdata/fullstate-grid-1.snap")
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string][]byte{
		"digest":            reseal(at, lines, altered),
		"line count":        reseal(at, lines+1, digest),
		"short digest":      reseal(at, lines, digest[:16]),
		"unreached cut":     reseal(1e6, lines, digest),
		"full-state format": fullState,
	} {
		_, err := Resume(rec, 0, nil)
		if !errors.Is(err, snap.ErrMalformed) && !errors.Is(err, snap.ErrTruncated) {
			t.Errorf("%s: Resume = %v, want a typed snap error", name, err)
		}
	}
}

// TestVerdictEqualityIsMeaningful guards the parity suite itself: two
// DIFFERENT seeds must produce different verdicts, or DeepEqual above
// would vacuously pass.
func TestVerdictEqualityIsMeaningful(t *testing.T) {
	a := Run(DefaultScenario(ArchGrid, 1))
	b := Run(DefaultScenario(ArchGrid, 2))
	if a.TraceHash == b.TraceHash {
		t.Fatal("distinct seeds produced identical trace hashes")
	}
}
