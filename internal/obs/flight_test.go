package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestFlightRingOverwrite(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := 0; i < 40; i++ {
		r.Record(float64(i), "ev", i, "")
	}
	got := r.Dump()
	if len(got) != 16 {
		t.Fatalf("dump = %d events, want ring cap 16", len(got))
	}
	// Oldest events were overwritten; the survivors are the last 16 in order.
	for i, ev := range got {
		if want := uint64(25 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestFlightDumpInSeqOrder: events from several writers come out of one
// dump numbered 1..n without a gap, in record order.
func TestFlightDumpInSeqOrder(t *testing.T) {
	r := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r.Record(float64(i), "ev", g, "d")
			}
		}()
	}
	wg.Wait()
	got := r.Dump()
	if len(got) != 30 {
		t.Fatalf("dump = %d events, want 30", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("dump event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

func TestFlightNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(0, "x", 0, "") // must not panic
	r.RecordMsg(0, "deliver", 1, "hb", 0, 1, false)
	if r.Dump() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

func TestFlightConcurrentRecordAndDump(t *testing.T) {
	r := NewFlightRecorder(4 * 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(float64(i), "tick", id, "")
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Dump()
			}
		}
	}()
	wg.Wait()
	close(done)
	got := r.Dump()
	if len(got) != 4*64 {
		t.Fatalf("final dump = %d, want %d", len(got), 4*64)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("dump not in seq order at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
}

func TestFlightTailAndTimeline(t *testing.T) {
	r := NewFlightRecorder(32)
	r.Record(1.5, "deliver", 7, "hb 3->7")
	r.Record(2.0, "crash", 3, "")
	evs := Tail(r.Dump(), 10)
	if len(evs) != 2 {
		t.Fatalf("tail = %d", len(evs))
	}
	var sb strings.Builder
	WriteTimeline(&sb, evs)
	out := sb.String()
	for _, want := range []string{"deliver", "actor=7", "hb 3->7", "crash", "t=2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q in:\n%s", want, out)
		}
	}
	if got := Tail(evs, 1); len(got) != 1 || got[0].Kind != "crash" {
		t.Fatalf("Tail(1) = %+v", got)
	}
}
