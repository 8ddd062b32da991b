package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("second Counter(x) returned a different instrument")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	count, sum, buckets := h.Snapshot()
	if count != 4 || sum != 104.5 {
		t.Fatalf("count=%d sum=%g, want 4, 104.5", count, sum)
	}
	want := []uint64{2, 1, 1} // <=1: {0.5, 1}; <=10: {3}; overflow: {100}
	for i, w := range want {
		if buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, buckets[i], w, buckets)
		}
	}
}

// TestSeriesMonotone drives interval samples through a series and asserts
// the recorded timestamps never move backwards, and that an out-of-order
// append panics rather than silently corrupting the series.
func TestSeriesMonotone(t *testing.T) {
	r := NewRegistry()
	s := r.Series("bank00.nmax")
	for i := 0; i < 100; i++ {
		s.Append(uint64(i*500), float64(i%7))
	}
	s.Append(100*500, 1) // equal timestamps are legal (final partial tick)
	pts := s.Points()
	if len(pts) != 101 {
		t.Fatalf("len = %d, want 101", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatalf("timestamps regressed at %d: %d after %d", i, pts[i].T, pts[i-1].T)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append into the past did not panic")
		}
	}()
	s.Append(3, 0)
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// concurrent get-or-create on shared and distinct names, increments,
// ticks and snapshots — and is meaningful under `go test -race`.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.AttachJSONL(&syncWriter{w: &buf})
	r.EnableTrace()
	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			own := r.Counter("own" + string(rune('a'+id)))
			for i := 0; i < iters; i++ {
				r.Counter("shared").Inc()
				own.Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{10, 100}).Observe(float64(i))
				r.Series("s"+string(rune('a'+id))).Append(uint64(i), float64(i))
			}
		}(g)
	}
	// Concurrent reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = r.Counter("shared").Value()
			_ = r.SeriesNames()
		}
	}()
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*iters {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*iters)
	}
	r.Tick(12345)
	if r.Err() != nil {
		t.Fatalf("sink error: %v", r.Err())
	}
}

// syncWriter serializes concurrent JSONL writes in tests.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestDisabledZeroAlloc verifies the disabled path — nil registry, nil
// instruments — performs zero heap allocations, the contract that lets
// hot paths instrument unconditionally.
func TestDisabledZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	s := r.Series("x")
	h := r.Histogram("x", nil)
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(1)
		s.Append(1, 1)
		h.Observe(1)
		r.Tick(1)
		tr.CounterValue("x", 1, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

func TestTickSnapshotsJSONL(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.AttachJSONL(&buf)
	c := r.Counter("events")
	nmax := r.Series("bank00.nmax")
	r.OnTick(func(now uint64) { nmax.Append(now, float64(now/1000)) })
	for i := uint64(1); i <= 3; i++ {
		c.Add(10)
		r.Tick(i * 1000)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3", len(lines))
	}
	var snap struct {
		Cycle    uint64             `json:"cycle"`
		Counters map[string]uint64  `json:"counters"`
		Series   map[string]float64 `json:"series"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &snap); err != nil {
		t.Fatalf("bad jsonl: %v", err)
	}
	if snap.Cycle != 3000 || snap.Counters["events"] != 30 || snap.Series["bank00.nmax"] != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if r.Ticks() != 3 {
		t.Fatalf("ticks = %d, want 3", r.Ticks())
	}
}

// BenchmarkDisabledCounter measures the cost of an instrument call with
// no registry attached: one nil check, ~sub-nanosecond, zero allocs.
func BenchmarkDisabledCounter(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkDisabledSeries measures the disabled series append path.
func BenchmarkDisabledSeries(b *testing.B) {
	var r *Registry
	s := r.Series("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Append(uint64(i), 1)
	}
}

// BenchmarkEnabledCounter is the reference point for the enabled path.
func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
