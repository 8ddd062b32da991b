package noc

import (
	"testing"
	"testing/quick"

	"espnuca/internal/sim"
)

func mustMesh(t *testing.T) *Mesh {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultTopology(t *testing.T) {
	m := mustMesh(t)
	if m.Nodes() != 8 {
		t.Fatalf("Nodes() = %d, want 8", m.Nodes())
	}
	if m.MemRouter(0) != 1 || m.MemRouter(1) != 6 {
		t.Fatalf("memory routers = %d,%d", m.MemRouter(0), m.MemRouter(1))
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := New(Config{Cols: -1, Rows: 2}); err == nil {
		t.Error("negative cols accepted")
	}
	if _, err := New(Config{Cols: 2, Rows: 2, MemRouters: []NodeID{9}}); err == nil {
		t.Error("out-of-range memory router accepted")
	}
}

func TestHops(t *testing.T) {
	m := mustMesh(t)
	cases := []struct {
		from, to NodeID
		want     int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 7, 4}, {3, 4, 4}, {1, 6, 2},
	}
	for _, c := range cases {
		if got := m.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
		if got := m.Hops(c.to, c.from); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d (symmetry)", c.to, c.from, got, c.want)
		}
	}
}

func TestFlits(t *testing.T) {
	m := mustMesh(t)
	if got := m.Flits(0); got != 1 {
		t.Errorf("control message = %d flits, want 1", got)
	}
	// 64B data + 8B header on 16B links = 4.5 -> 5 flits.
	if got := m.Flits(64); got != 5 {
		t.Errorf("data message = %d flits, want 5", got)
	}
}

func TestPathIsDOR(t *testing.T) {
	m := mustMesh(t)
	// From node 4 (x=0,y=1) to node 3 (x=3,y=0): X first then Y.
	got := m.Path(4, 3)
	want := []NodeID{4, 5, 6, 7, 3}
	if len(got) != len(want) {
		t.Fatalf("Path(4,3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(4,3) = %v, want %v", got, want)
		}
	}
}

// Property: DOR paths are minimal (len = hops+1), start and end correctly,
// and every step is a mesh edge.
func TestPathProperty(t *testing.T) {
	m := mustMesh(t)
	prop := func(a, b uint8) bool {
		from, to := NodeID(a%8), NodeID(b%8)
		p := m.Path(from, to)
		if p[0] != from || p[len(p)-1] != to {
			return false
		}
		if len(p) != m.Hops(from, to)+1 {
			return false
		}
		for i := 0; i < len(p)-1; i++ {
			if m.Hops(p[i], p[i+1]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := mustMesh(t)
	// Control message, 1 hop: 5 cycles.
	if got := m.Latency(0, 1, 0); got != 5 {
		t.Errorf("1-hop control latency = %d, want 5", got)
	}
	// Data message, 3 hops: 3*5 + (5-1) = 19.
	if got := m.Latency(0, 3, 64); got != 19 {
		t.Errorf("3-hop data latency = %d, want 19", got)
	}
	if got := m.Latency(2, 2, 64); got != 0 {
		t.Errorf("local latency = %d, want 0", got)
	}
}

func TestSendMatchesLatencyWhenIdle(t *testing.T) {
	for from := NodeID(0); from < 8; from++ {
		for to := NodeID(0); to < 8; to++ {
			mm := mustMesh(t)
			got := mm.Send(100, from, to, Data, 64)
			want := 100 + mm.Latency(from, to, 64)
			if got != want {
				t.Fatalf("Send(%d,%d) idle arrival = %d, want %d", from, to, got, want)
			}
		}
	}
}

func TestSendContention(t *testing.T) {
	m := mustMesh(t)
	// Two 5-flit data messages over the same link at the same cycle: the
	// second's head waits for the first's 5 flits.
	first := m.Send(0, 0, 1, Data, 64)
	second := m.Send(0, 0, 1, Data, 64)
	if second <= first {
		t.Fatalf("contended message arrived at %d, not after %d", second, first)
	}
	if second-first != 5 {
		t.Fatalf("contention delay = %d, want 5 (flit serialization)", second-first)
	}
	if m.LinkWaits() == 0 {
		t.Error("LinkWaits() = 0 despite contention")
	}
}

func TestSendDisjointPathsNoContention(t *testing.T) {
	m := mustMesh(t)
	a := m.Send(0, 0, 1, Data, 64)
	b := m.Send(0, 3, 2, Data, 64) // opposite direction, different link
	if a != b {
		t.Fatalf("disjoint sends interfered: %d vs %d", a, b)
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := mustMesh(t)
	m.Send(0, 0, 1, Control, 0)
	m.Send(0, 0, 1, Data, 64)
	m.Send(0, 2, 2, Control, 0) // local, still counted as a message
	if m.Messages != 3 || m.ControlMsgs != 2 || m.DataMsgs != 1 {
		t.Fatalf("messages=%d control=%d data=%d", m.Messages, m.ControlMsgs, m.DataMsgs)
	}
	// FlitHops: 1 (control, 1 hop) + 5 (data, 1 hop) = 6.
	if m.FlitHops != 6 {
		t.Fatalf("FlitHops = %d, want 6", m.FlitHops)
	}
}

// Property: arrival time is monotonically non-decreasing in injection time
// on a fixed route (FIFO links cannot reorder same-route messages).
func TestSendMonotonicProperty(t *testing.T) {
	prop := func(gaps []uint8) bool {
		m, _ := New(DefaultConfig())
		at := sim.Cycle(0)
		prev := sim.Cycle(0)
		for _, g := range gaps {
			at += sim.Cycle(g % 8)
			arr := m.Send(at, 0, 7, Data, 64)
			if arr < prev {
				return false
			}
			prev = arr
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMemRouterWraps(t *testing.T) {
	m := mustMesh(t)
	if m.MemRouter(0) != m.MemRouter(2) {
		t.Fatal("channel index does not wrap over configured memory routers")
	}
	if m.Config().HopLatency != 5 {
		t.Fatalf("Config() hop latency = %d", m.Config().HopLatency)
	}
}

func TestLatencySymmetry(t *testing.T) {
	m := mustMesh(t)
	for a := NodeID(0); a < 8; a++ {
		for b := NodeID(0); b < 8; b++ {
			if m.Latency(a, b, 64) != m.Latency(b, a, 64) {
				t.Fatalf("latency asymmetric between %d and %d", a, b)
			}
		}
	}
}

// broadcastBench drives a mesh with the broadcast-probe pattern of the
// private-L2 designs: a missing core probes the 7 other tiles at one
// cycle, each tile answers with a control reply, and the data returns
// from a memory router a DRAM latency later. The data replies book links
// hundreds of cycles ahead of the probes that follow, so each link sees
// its claims out of time order.
type broadcastBench struct {
	m    *Mesh
	now  sim.Cycle
	step [4096]sim.Cycle // cycles between misses
	dram [4096]sim.Cycle // DRAM latency plus queueing jitter
	i    int
}

func newBroadcastBench(b *testing.B) *broadcastBench {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(11)
	bb := &broadcastBench{m: m, now: 1000}
	for i := range bb.step {
		bb.step[i] = sim.Cycle(rng.Intn(65))
		bb.dram[i] = 300 + sim.Cycle(rng.Intn(200))
	}
	for i := 0; i < 20_000; i++ {
		bb.miss()
	}
	return bb
}

// miss sends one broadcast miss: 7 probes, 7 replies and a data reply.
func (bb *broadcastBench) miss() {
	k := bb.i & (len(bb.step) - 1)
	bb.i++
	bb.now += bb.step[k]
	c := NodeID(bb.i % bb.m.Nodes())
	for o := NodeID(0); o < NodeID(bb.m.Nodes()); o++ {
		if o == c {
			continue
		}
		t := bb.m.Send(bb.now, c, o, Control, 0)
		bb.m.Send(t+2, o, c, Control, 0)
	}
	bb.m.Send(bb.now+bb.dram[k], bb.m.MemRouter(bb.i), c, Data, 64)
}

// BenchmarkMeshSend reports the cost of one broadcast miss (15 Sends).
func BenchmarkMeshSend(b *testing.B) {
	bb := newBroadcastBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.miss()
	}
}
