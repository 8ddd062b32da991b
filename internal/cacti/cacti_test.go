package cacti

import (
	"testing"

	"espnuca/internal/arch"
)

// TestPaperBankMatchesTable2 checks the model against the bank timing
// the simulated Table 2 machine uses, so the two cannot drift apart.
func TestPaperBankMatchesTable2(t *testing.T) {
	r, err := Model(Default45nm(), PaperBank())
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.DefaultConfig()
	if r.TotalCycles != int(cfg.BankLatency) {
		t.Fatalf("TotalCycles = %d, simulated BankLatency %d", r.TotalCycles, cfg.BankLatency)
	}
	if r.TagCycles != int(cfg.TagLatency) {
		t.Fatalf("TagCycles = %d, simulated TagLatency %d", r.TagCycles, cfg.TagLatency)
	}
}

func TestL1Geometry(t *testing.T) {
	// 32KB 4-way L1 should be faster than the L2 bank.
	r, err := Model(Default45nm(), BankSpec{Bytes: 32 * 1024, Ways: 4, BlockBytes: 64, Sequential: false})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalCycles > 3 {
		t.Fatalf("L1 TotalCycles = %d, want <= 3 (Table 2)", r.TotalCycles)
	}
}

func TestModelMonotoneInCapacity(t *testing.T) {
	small, _ := Model(Default45nm(), BankSpec{Bytes: 64 * 1024, Ways: 16, BlockBytes: 64, Sequential: true})
	big, _ := Model(Default45nm(), BankSpec{Bytes: 1024 * 1024, Ways: 16, BlockBytes: 64, Sequential: true})
	if big.TotalNS <= small.TotalNS {
		t.Fatalf("larger bank not slower: %g vs %g ns", big.TotalNS, small.TotalNS)
	}
	if big.AreaMM2 <= small.AreaMM2 {
		t.Fatal("larger bank not bigger")
	}
}

func TestSequentialSlowerThanParallel(t *testing.T) {
	spec := PaperBank()
	seq, _ := Model(Default45nm(), spec)
	spec.Sequential = false
	par, _ := Model(Default45nm(), spec)
	if seq.TotalNS <= par.TotalNS {
		t.Fatalf("sequential (%g) not slower than parallel (%g)", seq.TotalNS, par.TotalNS)
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := Model(Default45nm(), BankSpec{Bytes: 0, Ways: 4, BlockBytes: 64}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Model(Default45nm(), BankSpec{Bytes: 1000, Ways: 3, BlockBytes: 64}); err == nil {
		t.Error("non-divisible geometry accepted")
	}
}

func TestTechScaling(t *testing.T) {
	r45, _ := Model(Tech{NanoMeters: 45, ClockGHz: 3}, PaperBank())
	r90, _ := Model(Tech{NanoMeters: 90, ClockGHz: 3}, PaperBank())
	if r90.TotalNS <= r45.TotalNS {
		t.Fatal("older node not slower")
	}
}
