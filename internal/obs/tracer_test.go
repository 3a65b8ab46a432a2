package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartTraceAndChildSpans(t *testing.T) {
	tr := NewTracer(256)
	reqH, phaseH := new(Histogram), new(Histogram)
	root := tr.StartTrace("request", reqH)
	ctx := root.Context(context.Background())
	id, ok := contextTrace(ctx)
	if !ok || id == 0 {
		t.Fatal("context does not carry the trace")
	}
	if root.TraceID() != id {
		t.Fatalf("root span trace %s != context trace %s", root.TraceID(), id)
	}
	child := Start(ctx, "phase", phaseH)
	cctx := child.Context(ctx)
	grand := Start(cctx, "subphase", nil)
	grand.SetAttr("round=3")
	grand.End()
	child.End()
	root.End()

	spans := tr.Trace(id)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["request"].Parent != "" {
		t.Errorf("root has parent %q", byName["request"].Parent)
	}
	if byName["phase"].Parent != byName["request"].Span {
		t.Errorf("phase parent = %q, want root span %q", byName["phase"].Parent, byName["request"].Span)
	}
	if byName["subphase"].Parent != byName["phase"].Span {
		t.Errorf("subphase parent = %q, want phase span %q", byName["subphase"].Parent, byName["phase"].Span)
	}
	if byName["subphase"].Attr != "round=3" {
		t.Errorf("attr = %q", byName["subphase"].Attr)
	}
	for _, s := range spans {
		if s.Trace != id.String() {
			t.Errorf("span %s carries trace %s, want %s", s.Name, s.Trace, id)
		}
	}
	// Each traced End also lands once in its histogram.
	for name, h := range map[string]*Histogram{"request": reqH, "phase": phaseH} {
		if hs := h.snapshot(); hs.Count != 1 {
			t.Errorf("%s histogram: count %d, want 1 observation", name, hs.Count)
		}
	}
}

func TestStartWithoutTraceOnlyTimes(t *testing.T) {
	h := new(Histogram)
	for _, ctx := range []context.Context{nil, context.Background()} {
		sp := Start(ctx, "orphan", h)
		if sp.TraceID() != 0 {
			t.Fatal("span without a trace in its context has a trace")
		}
		if got := sp.Context(context.Background()); got != context.Background() {
			t.Fatal("an untraced span derived a context")
		}
		if sp.End() <= 0 {
			t.Fatal("untraced End returned no duration")
		}
	}
	var nilTr *Tracer
	sp := nilTr.StartTrace("x", h)
	if sp.TraceID() != 0 {
		t.Fatal("nil tracer StartTrace opened a trace")
	}
	sp.End()
	if hs := h.snapshot(); hs.Count != 3 {
		t.Fatalf("histogram count %d, want 3 observations", hs.Count)
	}
	if n := testing.AllocsPerRun(100, func() {
		sp := Start(context.Background(), "orphan", h)
		sp.End()
	}); n != 0 {
		t.Fatalf("untraced span allocates %v times, want 0", n)
	}
}

// TestSpanContextTransplants: Context can hang a span on a context that
// does not descend from the one it was started in — the service's job
// context, which a client hang-up must not cancel.
func TestSpanContextTransplants(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartTrace("req", nil)
	defer root.End()
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	dst := root.Context(base)
	id, ok := contextTrace(dst)
	if !ok || id != root.TraceID() {
		t.Fatalf("transplanted trace = %v/%v, want %v", id, ok, root.TraceID())
	}
	cancel()
	if dst.Err() == nil {
		t.Fatal("the derived context lost its parent's cancellation")
	}
	child := Start(dst, "job", nil)
	child.End()
	if got := len(tr.Trace(id)); got != 1 {
		t.Fatalf("child recorded %d spans, want 1", got)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(64) // rounds to 64 slots
	root := tr.StartTrace("root", nil)
	ctx := root.Context(context.Background())
	root.End()
	for i := 0; i < 500; i++ {
		sp := Start(ctx, "spin", nil)
		sp.End()
	}
	if got := len(tr.Spans()); got > 64 {
		t.Fatalf("ring grew to %d records, cap 64", got)
	}
	// The root fell off the ring long ago; the newest spans survive.
	spans := tr.Spans()
	if spans[len(spans)-1].Name != "spin" {
		t.Fatalf("newest span = %q", spans[len(spans)-1].Name)
	}
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartTrace("req", nil)
	ctx := root.Context(context.Background())
	c := Start(ctx, "phase", nil)
	c.End()
	root.End()
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var n int
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.Trace == "" || rec.Span == "" || rec.Name == "" {
			t.Fatalf("incomplete record: %+v", rec)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("JSONL lines = %d, want 2", n)
	}
}

func TestTracerSummaries(t *testing.T) {
	tr := NewTracer(256)
	var ids []TraceID
	for i := 0; i < 3; i++ {
		root := tr.StartTrace("req", nil)
		ctx := root.Context(context.Background())
		c := Start(ctx, "inner", nil)
		time.Sleep(time.Millisecond)
		c.End()
		root.End()
		ids = append(ids, root.TraceID())
	}
	sums := tr.Summaries()
	if len(sums) != 3 {
		t.Fatalf("summaries = %d, want 3", len(sums))
	}
	for _, s := range sums {
		if s.Root != "req" || s.Spans != 2 || s.DurNS <= 0 {
			t.Fatalf("bad summary %+v", s)
		}
	}
	// Most recent first.
	if sums[0].Trace != ids[2].String() {
		t.Fatalf("order: got %s first, want %s", sums[0].Trace, ids[2])
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartTrace("req", nil)
				ctx := root.Context(context.Background())
				c := Start(ctx, "inner", nil)
				c.End()
				root.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Spans()
			}
		}
	}()
	wg.Wait()
	close(done)
	// Spans that met a contended slot were dropped; the ring never
	// holds more than its capacity.
	if got := len(tr.Spans()); got > 256 {
		t.Fatalf("ring overflow: %d records", got)
	}
}

func TestParseTraceID(t *testing.T) {
	id := TraceID(0xdeadbeef12345678)
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("round trip: %v %v", got, err)
	}
	if _, err := ParseTraceID("zz"); err == nil {
		t.Fatal("want error on bad hex")
	}
}

// contextTrace returns the trace ID carried by ctx, if any.
func contextTrace(ctx context.Context) (TraceID, bool) {
	sc, ok := ctx.Value(ctxKey{}).(spanCtx)
	return sc.trace, ok
}
