package arch_test

import (
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/cache"
	"espnuca/internal/experiment"
)

// privateBlocks runs apache on the named architecture and counts the
// valid Private-class blocks its L2 banks hold at the end.
func privateBlocks(t *testing.T, name string) int {
	t.Helper()
	rc := experiment.DefaultRunConfig(name, "apache")
	rc.Warmup, rc.Instructions = 20_000, 10_000
	sys, err := arch.Build(rc.Arch, rc.System)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.RunOn(rc, sys); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, bank := range sys.Sub().Bank {
		for si := 0; si < bank.Sets(); si++ {
			for _, blk := range bank.Set(si).Blocks {
				if blk.Valid && blk.Class == cache.Private {
					n++
				}
			}
		}
	}
	return n
}

// TestClassMixDiffersByArchitecture checks the block classes each
// organization leaves in its banks: shared S-NUCA holds only
// Shared-class blocks, while ESP-NUCA's dynamic partition keeps private
// blocks next to the shared ones.
func TestClassMixDiffersByArchitecture(t *testing.T) {
	if n := privateBlocks(t, "shared"); n != 0 {
		t.Fatalf("shared S-NUCA holds %d private-class blocks", n)
	}
	if privateBlocks(t, "esp-nuca") == 0 {
		t.Fatal("ESP-NUCA holds no private blocks on apache")
	}
}
