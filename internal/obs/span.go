package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the service-side half of the observability layer: wall-
// clock spans recording where a submitted job's time went (queue wait,
// cache lookup, simulation, encode). It deliberately has no OpenTelemetry
// dependency — a span is a name, a [start, end) wall-time interval, a
// parent and a flat attribute bag, which is everything the espserved
// trace endpoint and the espctl timeline need.
//
// The same zero-cost-when-disabled discipline as the instruments above
// applies: every method is safe on a nil *JobTrace, and a SpanHandle
// minted from a nil trace is inert, so instrumented code starts and ends
// spans unconditionally.

// Span is one timed operation inside a job's lifecycle. A zero End marks
// a span still open when the trace was snapshotted.
type Span struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration returns End-Start for a closed span and 0 for an open one.
func (s Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// JobTrace collects the span tree of one job. It is goroutine-safe:
// matrix jobs record cell spans from many worker goroutines at once.
// All methods are safe on a nil receiver (spans vanish, handles are
// inert), which is how a service with tracing disabled pays nothing.
type JobTrace struct {
	traceID string
	mu      sync.Mutex
	spans   []Span
}

// NewJobTrace returns an empty trace. An empty traceID generates a fresh
// random one (clients propagate their own via the X-Trace-Id header).
func NewJobTrace(traceID string) *JobTrace {
	if traceID == "" {
		traceID = NewTraceID()
	}
	// A run job's lifecycle records ~7 spans; pre-sizing keeps span
	// recording off the allocator after the trace is minted.
	return &JobTrace{traceID: traceID, spans: make([]Span, 0, 8)}
}

// TraceID returns the trace's correlation ID ("" on a nil receiver).
func (t *JobTrace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SpanHandle is a cheap value handle to one recorded span. The zero
// SpanHandle is inert and doubles as "no parent" for StartSpan.
type SpanHandle struct {
	t  *JobTrace
	id uint64
}

// ID returns the span's ID (0 for an inert handle).
func (h SpanHandle) ID() uint64 { return h.id }

// StartSpan opens a span under parent (the zero handle parents at the
// root) starting now. Safe on a nil receiver: returns an inert handle.
func (t *JobTrace) StartSpan(name string, parent SpanHandle) SpanHandle {
	return t.StartSpanAt(name, parent, time.Now())
}

// StartSpanAt opens a span with an explicit start time — used when the
// interval is only known after the fact (e.g. a caller that piggybacked
// on another caller's in-flight simulation).
func (t *JobTrace) StartSpanAt(name string, parent SpanHandle, start time.Time) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	t.mu.Lock()
	id := uint64(len(t.spans)) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent.id, Name: name, Start: start})
	t.mu.Unlock()
	return SpanHandle{t: t, id: id}
}

// Child opens a sub-span of h starting now.
func (h SpanHandle) Child(name string) SpanHandle {
	return h.t.StartSpan(name, h)
}

// End closes the span now. Idempotent: the first End wins, so cleanup
// paths may End defensively without clobbering the recorded interval.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	sp := &h.t.spans[h.id-1]
	if sp.End.IsZero() {
		sp.End = time.Now()
	}
	h.t.mu.Unlock()
}

// SetAttr attaches (or overwrites) a string attribute on the span.
func (h SpanHandle) SetAttr(key, value string) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	sp := &h.t.spans[h.id-1]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]string, 4)
	}
	sp.Attrs[key] = value
	h.t.mu.Unlock()
}

// Snapshot returns a copy of the recorded spans in creation order (IDs
// are dense and ascending, so creation order is ID order). Attribute
// maps are copied; the caller may retain the result.
func (t *JobTrace) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i, sp := range t.spans {
		if sp.Attrs != nil {
			attrs := make(map[string]string, len(sp.Attrs))
			for k, v := range sp.Attrs {
				attrs[k] = v
			}
			sp.Attrs = attrs
		}
		out[i] = sp
	}
	return out
}

// Len returns the number of recorded spans.
func (t *JobTrace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceIDState is a splitmix64 counter seeded once from the system
// randomness source. Correlation IDs need uniqueness, not crypto
// strength, and an atomic add plus a mix keeps NewTraceID off the
// submit path's profile (crypto/rand per ID costs ~1µs).
var traceIDState = func() *atomic.Uint64 {
	var s atomic.Uint64
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		var n uint64
		for i := range b {
			n |= uint64(b[i]) << (8 * i)
		}
		s.Store(n)
	}
	return &s
}()

// NewTraceID returns a 16-hex-character random correlation ID.
func NewTraceID() string {
	n := traceIDState.Add(0x9e3779b97f4a7c15)
	n ^= n >> 30
	n *= 0xbf58476d1ce4e5b9
	n ^= n >> 27
	n *= 0x94d049bb133111eb
	n ^= n >> 31
	var b [8]byte
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// traceCtxKey keys the JobTrace carried through a job's context.
type traceCtxKey struct{}

// ContextWithJobTrace returns ctx carrying t, so layers below the
// scheduler (runner, result cache) can record spans into the job's
// trace. A nil t returns ctx unchanged.
func ContextWithJobTrace(ctx context.Context, t *JobTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// JobTraceFrom extracts the job trace from ctx (nil when absent, which
// every JobTrace method tolerates).
func JobTraceFrom(ctx context.Context) *JobTrace {
	t, _ := ctx.Value(traceCtxKey{}).(*JobTrace)
	return t
}
