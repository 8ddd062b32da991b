package arch

import (
	"testing"

	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// TestRandomTrafficInvariants drives every architecture with randomized
// read/write/write-back traffic from all cores and checks, throughout,
// that token conservation, residency bookkeeping and bank counters hold.
// This is the system-level safety net on top of the per-package property
// tests.
//
// Each run is repeated on an 8-entry line table, where the index grows
// and backward-shifts on nearly every insertion and deletion, and the
// slab grows, moving every record, at nearly every Open, so a *LineState
// or l2Has slice held across an Open reads moved data; the two runs must
// agree exactly.
func TestRandomTrafficInvariants(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				s := randomTraffic(t, name, seed, 0)
				tiny := randomTraffic(t, name, seed, 8)
				if s.Counts != tiny.Counts || s.Latency != tiny.Latency {
					t.Fatalf("seed %d: 8-entry table diverged: counts %v/%v, latency %v/%v",
						seed, s.Counts, tiny.Counts, s.Latency, tiny.Latency)
				}
				for b := range s.Bank {
					if s.Bank[b].Stats != tiny.Bank[b].Stats {
						t.Fatalf("seed %d: bank %d stats %+v, on the 8-entry table %+v",
							seed, b, s.Bank[b].Stats, tiny.Bank[b].Stats)
					}
				}
				// Sanity: traffic produced a sensible decomposition.
				total, _ := s.AvgAccessTime()
				if total <= 0 {
					t.Fatal("no access latency recorded")
				}
			}
		})
	}
}

// randomTraffic runs one seed of TestRandomTrafficInvariants' traffic on
// architecture name, starting from a line table of tableSize index slots
// and slab records when tableSize is non-zero, and returns the
// substrate.
func randomTraffic(t *testing.T, name string, seed uint64, tableSize int) *Substrate {
	t.Helper()
	cfg := testConfig()
	cfg.Seed = seed
	sys, err := Build(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Sub()
	if tableSize > 0 {
		s.lines = newLineTable(tableSize, tableSize)
	}
	rng := sim.NewRNG(seed * 77)
	var tm sim.Cycle
	for op := 0; op < 4000; op++ {
		c := rng.Intn(8)
		line := mem.Line(rng.Intn(512))
		write := rng.Bool(0.3)
		if s.L1.Lookup(c, line, write, false) {
			continue
		}
		res := sys.Access(tm, c, line, write)
		wb := s.L1.Fill(c, line, write, false)
		if wb.Valid {
			if wb.Dirty {
				sys.WriteBack(res.Done, c, wb.Line, true)
			} else {
				r := s.Open(wb.Line)
				s.Dir.L1Evict(r, c, false)
				s.maybeForgetStatus(r)
			}
		}
		tm = res.Done
		if op%512 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("seed %d final: %v", seed, err)
	}
	return s
}

// TestDeterministicReplay verifies that identical configs and traffic
// produce identical timing, the property every experiment relies on.
func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Cycle, [NumLevels]uint64) {
		cfg := testConfig()
		cfg.Seed = 9
		sys, err := Build("esp-nuca", cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := sys.Sub()
		rng := sim.NewRNG(123)
		var tm sim.Cycle
		for op := 0; op < 3000; op++ {
			c := rng.Intn(8)
			line := mem.Line(rng.Intn(256))
			write := rng.Bool(0.25)
			if s.L1.Lookup(c, line, write, false) {
				continue
			}
			res := sys.Access(tm, c, line, write)
			wb := s.L1.Fill(c, line, write, false)
			if wb.Valid {
				sys.WriteBack(res.Done, c, wb.Line, wb.Dirty)
			}
			tm = res.Done
		}
		return tm, s.Counts
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("replay diverged: %d/%v vs %d/%v", t1, c1, t2, c2)
	}
}
