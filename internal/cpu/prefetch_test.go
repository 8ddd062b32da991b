package cpu

import (
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

func TestStridePrefetcherLearnsStride(t *testing.T) {
	p := newStridePrefetcher(2)
	// Train with a unit-stride miss stream: 100, 101, 102, ...
	var issued []mem.Line
	for i := 0; i < 6; i++ {
		for _, l := range p.observeMiss(mem.Line(100 + i)) {
			p.markIssued(l)
			issued = append(issued, l)
		}
	}
	if len(issued) == 0 {
		t.Fatal("no prefetches for a perfect stride stream")
	}
	// First prefetches appear after the confirmation threshold and run
	// ahead of the stream.
	if issued[0] <= 102 {
		t.Fatalf("first prefetch %d not ahead of stream", issued[0])
	}
	if issued[1] != issued[0]+1 {
		t.Fatalf("degree-2 prefetches not consecutive: %v", issued[:2])
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	p := newStridePrefetcher(2)
	// Misses with changing strides never confirm.
	lines := []mem.Line{100, 105, 107, 120, 121, 150}
	n := 0
	for _, l := range lines {
		n += len(p.observeMiss(l))
	}
	if n != 0 {
		t.Fatalf("%d prefetches on a strideless stream", n)
	}
}

func TestStridePrefetcherNegativeStride(t *testing.T) {
	p := newStridePrefetcher(1)
	var got []mem.Line
	for i := 0; i < 6; i++ {
		got = append(got, p.observeMiss(mem.Line(1000-2*i))...)
	}
	if len(got) == 0 {
		t.Fatal("no prefetches on a descending stride")
	}
	if got[0] >= 1000 {
		t.Fatalf("descending prefetch %d not below stream", got[0])
	}
}

func TestStridePrefetcherRegions(t *testing.T) {
	p := newStridePrefetcher(1)
	// Two interleaved unit-stride streams in regions mapping to distinct
	// table entries must both train.
	var a, b int
	for i := 0; i < 8; i++ {
		a += len(p.observeMiss(mem.Line(0x0000 + i)))
		b += len(p.observeMiss(mem.Line(0x4400 + i))) // region 17 -> entry 1
	}
	if a == 0 || b == 0 {
		t.Fatalf("interleaved streams not independently trained: %d, %d", a, b)
	}
}

func TestStridePrefetcherUsefulCounting(t *testing.T) {
	p := newStridePrefetcher(1)
	p.markIssued(42)
	p.observeHit(42)
	p.observeHit(42) // second hit must not double-count
	if p.Issued != 1 || p.Useful != 1 {
		t.Fatalf("issued=%d useful=%d", p.Issued, p.Useful)
	}
}

func TestPrefetchEndToEnd(t *testing.T) {
	// A streaming workload with a prefetching core should report issued
	// and useful prefetches, and still satisfy system invariants.
	eng, sys := engineAndSystem(t)
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 2
	c := New(0, cfg, eng, sys, strideSource{}, 20000)
	c.Start()
	eng.RunUntil(0, func() bool { return c.Done })
	issued, useful := c.PrefetchStats()
	if issued == 0 {
		t.Fatal("no prefetches issued on a streaming source")
	}
	if useful == 0 {
		t.Fatal("no prefetch was ever useful on a pure stream")
	}
	if useful > issued {
		t.Fatalf("useful %d > issued %d", useful, issued)
	}
	if err := sys.Sub().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	eng, sys := engineAndSystem(t)
	c := New(0, DefaultConfig(), eng, sys, strideSource{}, 2000)
	c.Start()
	eng.RunUntil(0, func() bool { return c.Done })
	if issued, _ := c.PrefetchStats(); issued != 0 {
		t.Fatalf("prefetches issued with degree 0: %d", issued)
	}
}

// engineAndSystem builds a fresh engine + shared-NUCA system for
// prefetch tests.
func engineAndSystem(t *testing.T) (*sim.Engine, arch.System) {
	t.Helper()
	return sim.NewEngine(), testSystem(t)
}

// strideSource emits a pure unit-stride data stream (one load per
// instruction), the best case for a stride prefetcher.
type strideSource struct{ n mem.Line }

func (s strideSource) Next() workload.Instr {
	strideCursor++
	return workload.Instr{Data: 0x4000_0000 + strideCursor, Flags: workload.Flags{IsMem: true}}
}

// strideCursor advances the shared stream position (tests are
// single-goroutine; each test uses a fresh system so interleaving is
// irrelevant to the assertions).
var strideCursor mem.Line
