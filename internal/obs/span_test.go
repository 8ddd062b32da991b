package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestJobTraceSpanTree(t *testing.T) {
	tr := NewJobTrace("cafe0123cafe0123")
	if got := tr.TraceID(); got != "cafe0123cafe0123" {
		t.Fatalf("TraceID = %q", got)
	}
	root := tr.StartSpan("received", SpanHandle{})
	child := root.Child("decode")
	child.SetAttr("bytes", "128")
	child.End()
	grand := child.Child("inner")
	grand.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "received" || spans[0].Parent != 0 {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("decode parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if spans[2].Parent != spans[1].ID {
		t.Errorf("inner parent = %d, want %d", spans[2].Parent, spans[1].ID)
	}
	if spans[1].Attrs["bytes"] != "128" {
		t.Errorf("attrs = %v", spans[1].Attrs)
	}
	for i, sp := range spans {
		if sp.End.IsZero() || sp.End.Before(sp.Start) {
			t.Errorf("span %d has bad interval: %+v", i, sp)
		}
		if sp.Duration() < 0 {
			t.Errorf("span %d negative duration", i)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewJobTrace("")
	h := tr.StartSpan("op", SpanHandle{})
	h.End()
	first := tr.Snapshot()[0].End
	time.Sleep(2 * time.Millisecond)
	h.End()
	if got := tr.Snapshot()[0].End; !got.Equal(first) {
		t.Errorf("second End moved the span: %v -> %v", first, got)
	}
}

func TestSpanStartAt(t *testing.T) {
	tr := NewJobTrace("")
	start := time.Now().Add(-time.Second)
	h := tr.StartSpanAt("late", SpanHandle{}, start)
	h.End()
	sp := tr.Snapshot()[0]
	if !sp.Start.Equal(start) {
		t.Errorf("Start = %v, want %v", sp.Start, start)
	}
	if sp.Duration() < time.Second {
		t.Errorf("duration %v, want >= 1s", sp.Duration())
	}
}

// TestNilJobTraceInert is the disabled path: every operation on a nil
// trace (and on handles minted from it) must be a no-op.
func TestNilJobTraceInert(t *testing.T) {
	var tr *JobTrace
	if tr.TraceID() != "" || tr.Len() != 0 || tr.Snapshot() != nil {
		t.Error("nil trace not inert")
	}
	h := tr.StartSpan("x", SpanHandle{})
	h.SetAttr("k", "v")
	h.End()
	h.Child("y").End()
	if h.ID() != 0 {
		t.Errorf("nil-trace handle has ID %d", h.ID())
	}
	ctx := ContextWithJobTrace(context.Background(), nil)
	if JobTraceFrom(ctx) != nil {
		t.Error("nil trace round-tripped through context as non-nil")
	}
}

func TestContextCarriesJobTrace(t *testing.T) {
	tr := NewJobTrace("")
	ctx := ContextWithJobTrace(context.Background(), tr)
	if got := JobTraceFrom(ctx); got != tr {
		t.Fatalf("JobTraceFrom = %p, want %p", got, tr)
	}
	if JobTraceFrom(context.Background()) != nil {
		t.Error("empty context yields a trace")
	}
}

func TestJobTraceConcurrent(t *testing.T) {
	tr := NewJobTrace("")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h := tr.StartSpan("cell", SpanHandle{})
				h.SetAttr("i", "x")
				h.Child("sub").End()
				h.End()
			}
		}()
	}
	wg.Wait()
	spans := tr.Snapshot()
	if len(spans) != 8*100*2 {
		t.Fatalf("got %d spans, want %d", len(spans), 8*100*2)
	}
	for i, sp := range spans {
		if sp.ID != uint64(i)+1 {
			t.Fatalf("span %d has ID %d: IDs must be dense and ascending", i, sp.ID)
		}
	}
}

func TestNewTraceIDShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}
