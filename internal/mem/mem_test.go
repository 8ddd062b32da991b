package mem

import (
	"testing"
	"testing/quick"

	"espnuca/internal/sim"
)

func TestNewGeometry(t *testing.T) {
	g, err := NewGeometry(64)
	if err != nil {
		t.Fatal(err)
	}
	if g.OffsetBits != 6 {
		t.Fatalf("OffsetBits = %d, want 6", g.OffsetBits)
	}
	if _, err := NewGeometry(0); err == nil {
		t.Error("NewGeometry(0) did not fail")
	}
	if _, err := NewGeometry(48); err == nil {
		t.Error("NewGeometry(48) did not fail")
	}
	if _, err := NewGeometry(-64); err == nil {
		t.Error("NewGeometry(-64) did not fail")
	}
}

func TestLineRoundTrip(t *testing.T) {
	g, _ := NewGeometry(64)
	cases := []Addr{0, 1, 63, 64, 65, 4096, 0xFFFF_FFFF_FFFF_FFC0}
	for _, a := range cases {
		l := g.LineOf(a)
		base := g.AddrOf(l)
		if base > a || a-base >= 64 {
			t.Errorf("addr %#x maps to line base %#x", a, base)
		}
	}
}

// Property: all addresses within one block map to the same line, and
// adjacent blocks map to adjacent lines.
func TestLineOfProperty(t *testing.T) {
	g, _ := NewGeometry(64)
	prop := func(block uint64, off uint8) bool {
		block &= (1 << 57) - 1
		a := Addr(block<<6 | uint64(off%64))
		return g.LineOf(a) == Line(block) && g.LineOf(g.AddrOf(Line(block)+1)) == Line(block)+1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog2(t *testing.T) {
	cases := []struct {
		v     int
		bits  uint
		exact bool
	}{
		{1, 0, true}, {2, 1, true}, {3, 1, false}, {4, 2, true},
		{32, 5, true}, {256, 8, true}, {257, 8, false},
	}
	for _, c := range cases {
		bits, exact := Log2(c.v)
		if bits != c.bits || exact != c.exact {
			t.Errorf("Log2(%d) = (%d,%v), want (%d,%v)", c.v, bits, exact, c.bits, c.exact)
		}
	}
	if _, exact := Log2(0); exact {
		t.Error("Log2(0) reported exact")
	}
}

func TestDRAMLatency(t *testing.T) {
	d := NewDRAM(DRAMConfig{Latency: 100, Interval: 10, Channels: 1})
	if got := d.Read(0, 0); got != 100 {
		t.Fatalf("idle read done at %d, want 100", got)
	}
	// Second read to the same channel queues behind the first.
	if got := d.Read(0, 0); got != 110 {
		t.Fatalf("queued read done at %d, want 110", got)
	}
}

func TestDRAMChannelInterleaving(t *testing.T) {
	d := NewDRAM(DRAMConfig{Latency: 100, Interval: 10, Channels: 2})
	if d.ChannelOf(0) == d.ChannelOf(1) {
		t.Fatal("adjacent lines mapped to same channel")
	}
	// Different channels do not contend.
	if got := d.Read(0, 0); got != 100 {
		t.Fatalf("ch0 read done at %d, want 100", got)
	}
	if got := d.Read(0, 1); got != 100 {
		t.Fatalf("ch1 read done at %d, want 100", got)
	}
}

func TestDRAMPostedWrites(t *testing.T) {
	d := NewDRAM(DRAMConfig{Latency: 100, Interval: 10, Channels: 1})
	if got := d.Write(5, 0); got != 5 {
		t.Fatalf("posted write accepted at %d, want 5", got)
	}
	if d.Writes != 1 || d.Reads != 0 || d.Accesses() != 1 {
		t.Fatalf("counters = %d reads %d writes", d.Reads, d.Writes)
	}
}

// Property: DRAM read completion is always >= arrival + latency, and
// per-channel completions are spaced by at least the interval.
func TestDRAMBandwidthProperty(t *testing.T) {
	prop := func(gaps []uint8) bool {
		d := NewDRAM(DRAMConfig{Latency: 50, Interval: 8, Channels: 1})
		at := sim.Cycle(0)
		var prev sim.Cycle
		first := true
		for _, gp := range gaps {
			at += sim.Cycle(gp % 4)
			done := d.Read(at, 0)
			if done < at+50 {
				return false
			}
			if !first && done < prev+8 {
				return false
			}
			prev, first = done, false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreSet(t *testing.T) {
	var s CoreSet
	for _, c := range []int{0, 3, MaxCores - 1} {
		s = s.With(c)
	}
	if s != 0b1000_1001 || s.Len() != 3 {
		t.Fatalf("set = %08b (len %d), want 10001001 (len 3)", s, s.Len())
	}
	for c := 0; c < MaxCores; c++ {
		if want := c == 0 || c == 3 || c == MaxCores-1; s.Has(c) != want {
			t.Errorf("Has(%d) = %v, want %v", c, s.Has(c), want)
		}
	}
	if got := s.Without(3).Without(5); got != 0b1000_0001 {
		t.Errorf("Without = %08b, want 10000001", got)
	}
	if all := CoreSet(1<<MaxCores - 1); all.Len() != MaxCores {
		t.Errorf("full set has %d cores, want %d", all.Len(), MaxCores)
	}
}
