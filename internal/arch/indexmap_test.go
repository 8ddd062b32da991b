package arch

import (
	"testing"

	"espnuca/internal/mem"
	"espnuca/internal/noc"
)

// TestIndexMapsMatchArithmetic pins each per-access index map that the
// substrate's components keep free of division (a mask or shift by a
// power of two, a bank-to-router table) to the arithmetic it replaces:
// on the scaled machine, the full machine, and a machine whose L1 set
// count, DRAM channel count, memory-router count and link width are not
// powers of two, so the division fallback runs.
func TestIndexMapsMatchArithmetic(t *testing.T) {
	odd := ScaledConfig()
	odd.L1.Bytes = 24 << 10 // 96 sets of 4 ways
	odd.DRAM.Channels = 3
	odd.NoC.MemRouters = []noc.NodeID{1, 6, 3}
	odd.NoC.LinkBytes = 12
	lines := []mem.Line{0, 1, 63, 64, 95, 96, 97, 127, 128, 1 << 20, 1<<40 + 5, ^mem.Line(0)}
	for i := mem.Line(0); i < 5_000; i++ {
		lines = append(lines, i*7919)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"scaled", ScaledConfig()}, {"full", DefaultConfig()}, {"odd", odd}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			s, err := NewSubstrate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sets := cfg.L1.Bytes / cfg.L1.BlockBytes / cfg.L1.Ways
			for _, l := range lines {
				if got, want := s.L1.SetOf(l), int(uint64(l)%uint64(sets)); got != want {
					t.Fatalf("L1 set of line %d: %d, want %d", l, got, want)
				}
				if got, want := s.DRAM.ChannelOf(l), int(uint64(l)%uint64(cfg.DRAM.Channels)); got != want {
					t.Fatalf("DRAM channel of line %d: %d, want %d", l, got, want)
				}
			}
			perNode := cfg.Banks / (cfg.NoC.Cols * cfg.NoC.Rows)
			for b := 0; b < cfg.Banks; b++ {
				if got, want := s.NodeOfBank(b), noc.NodeID(b/perNode); got != want {
					t.Fatalf("router of bank %d: %d, want %d", b, got, want)
				}
			}
			lb := cfg.NoC.LinkBytes
			for size := -30; size <= 4*cfg.BlockBytes; size++ {
				if got, want := s.Mesh.Flits(size), max(1, (size+8+lb-1)/lb); got != want {
					t.Fatalf("flits of %d bytes: %d, want %d", size, got, want)
				}
			}
			for ch := 0; ch < 4*cfg.DRAM.Channels; ch++ {
				if got, want := s.Mesh.MemRouter(ch), cfg.NoC.MemRouters[ch%len(cfg.NoC.MemRouters)]; got != want {
					t.Fatalf("router of channel %d: %d, want %d", ch, got, want)
				}
			}
		})
	}
}
