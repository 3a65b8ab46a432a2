package core

import (
	"context"
	"testing"

	"decor/internal/obs"
	"decor/internal/rng"
)

// TestDeployEmitsTraceSpans checks that a trace carried in Options.Ctx
// flows into placement: every method emits a core.deploy child span, and
// the round-based methods hang one core.round span per executed round off
// it. The same calls feed the round and eval histograms: one observation
// of each per core.round span, and an untraced deploy adds the same
// observations and records no span.
func TestDeployEmitsTraceSpans(t *testing.T) {
	observations := func() (rounds, evals uint64) {
		hs := obs.Default().Snapshot().Histograms
		return hs[obs.CoreRoundSeconds].Count, hs[obs.CoreBenefitEvalSeconds].Count
	}
	for _, meth := range allMethods() {
		tr := obs.NewTracer(4096)
		root := tr.StartTrace("req", nil)
		ctx := root.Context(context.Background())
		m := newField(t, 1, 30, 3)
		r0, e0 := observations()
		res := meth.Deploy(m, rng.New(4), Options{Ctx: ctx})
		r1, e1 := observations()
		root.End()

		spans := tr.Trace(root.TraceID())
		var deploy *obs.SpanRecord
		rounds := 0
		for i := range spans {
			switch spans[i].Name {
			case "core.deploy":
				deploy = &spans[i]
			case "core.round":
				rounds++
			}
		}
		if deploy == nil {
			t.Fatalf("%s: no core.deploy span", meth.Name())
		}
		if deploy.Parent != spans[len(spans)-1].Span && deploy.Trace != root.TraceID().String() {
			t.Errorf("%s: core.deploy not in the request trace", meth.Name())
		}
		if r1-r0 != uint64(rounds) || e1-e0 != uint64(rounds) {
			t.Errorf("%s: %d round and %d eval observations, want one each per core.round span (%d)",
				meth.Name(), r1-r0, e1-e0, rounds)
		}
		switch meth.(type) {
		case GridDECOR, VoronoiDECOR:
			if rounds != res.Rounds {
				t.Errorf("%s: %d core.round spans, want %d", meth.Name(), rounds, res.Rounds)
			}
			for i := range spans {
				if spans[i].Name == "core.round" && spans[i].Parent != deploy.Span {
					t.Errorf("%s: core.round parent = %q, want core.deploy %q",
						meth.Name(), spans[i].Parent, deploy.Span)
				}
			}
		default:
			if rounds != 0 {
				t.Errorf("%s: unexpected core.round spans (%d)", meth.Name(), rounds)
			}
		}

		recorded := len(tr.Spans())
		m = newField(t, 1, 30, 3)
		meth.Deploy(m, rng.New(4), Options{Ctx: context.Background()})
		if r2, e2 := observations(); r2-r1 != r1-r0 || e2-e1 != e1-e0 {
			t.Errorf("%s: untraced deploy added %d/%d round/eval observations, traced %d/%d",
				meth.Name(), r2-r1, e2-e1, r1-r0, e1-e0)
		}
		if got := len(tr.Spans()); got != recorded {
			t.Errorf("%s: untraced deploy recorded %d spans", meth.Name(), got-recorded)
		}
	}
}

// TestDeployWithoutTraceIsSilent: no trace in Options.Ctx (or no Ctx at
// all) must record nothing and must not panic.
func TestDeployWithoutTraceIsSilent(t *testing.T) {
	m := newField(t, 1, 30, 3)
	GridDECOR{CellSize: 5}.Deploy(m, rng.New(4), Options{})
	m2 := newField(t, 1, 30, 3)
	VoronoiDECOR{Rc: 8}.Deploy(m2, rng.New(4), Options{Ctx: context.Background()})
}
