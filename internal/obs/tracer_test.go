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
	ctx, root := tr.StartTrace(context.Background(), "request")
	id, ok := contextTrace(ctx)
	if !ok || id == 0 {
		t.Fatal("context does not carry the trace")
	}
	if root.TraceID() != id {
		t.Fatalf("root span trace %s != context trace %s", root.TraceID(), id)
	}
	cctx, child := StartSpanCtx(ctx, "phase")
	_, grand := StartSpanCtx(cctx, "subphase")
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
}

func TestStartSpanCtxWithoutTraceIsNoop(t *testing.T) {
	ctx, sp := StartSpanCtx(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("expected nil span without a trace in context")
	}
	if sp.End() != 0 { // nil-safe
		t.Fatal("nil span End should return 0")
	}
	if _, ok := contextTrace(ctx); ok {
		t.Fatal("no-op must not invent a trace")
	}
	var nilTr *Tracer
	ctx2, sp2 := nilTr.StartTrace(context.Background(), "x")
	if sp2 != nil || ctx2 == nil {
		t.Fatal("nil tracer StartTrace must be a no-op")
	}
}

func TestWithSpanContextTransplants(t *testing.T) {
	tr := NewTracer(64)
	src, root := tr.StartTrace(context.Background(), "req")
	defer root.End()
	dst := WithSpanContext(context.Background(), src)
	id, ok := contextTrace(dst)
	if !ok || id != root.TraceID() {
		t.Fatalf("transplanted trace = %v/%v, want %v", id, ok, root.TraceID())
	}
	_, child := StartSpanCtx(dst, "job")
	child.End()
	if got := len(tr.Trace(id)); got != 1 {
		t.Fatalf("child recorded %d spans, want 1", got)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(64) // rounds to 64 slots
	ctx, root := tr.StartTrace(context.Background(), "root")
	root.End()
	for i := 0; i < 500; i++ {
		_, sp := StartSpanCtx(ctx, "spin")
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
	ctx, root := tr.StartTrace(context.Background(), "req")
	_, c := StartSpanCtx(ctx, "phase")
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
		ctx, root := tr.StartTrace(context.Background(), "req")
		_, c := StartSpanCtx(ctx, "inner")
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
				ctx, root := tr.StartTrace(context.Background(), "req")
				_, c := StartSpanCtx(ctx, "inner")
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
	// Recorded + dropped must account for every span that completed.
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
