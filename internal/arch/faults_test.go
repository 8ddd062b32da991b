package arch

import (
	"testing"

	"espnuca/internal/cache"
	"espnuca/internal/mem"
)

// Fault-injection tests: corrupt internal state deliberately and verify
// the invariant checkers catch it. A checker that never fires is
// indistinguishable from no checker.

func TestInjectTokenLossDetected(t *testing.T) {
	sys := build(t, "esp-nuca")
	s := sys.Sub()
	sys.Access(0, 0, 100, false)
	st := s.Dir.State(s.Open(100))
	st.MemTokens-- // lose a token
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("token loss not detected")
	}
	st.MemTokens++ // repair
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("repair not accepted: %v", err)
	}
}

func TestInjectPhantomResidencyDetected(t *testing.T) {
	sys := build(t, "shared")
	s := sys.Sub()
	sys.Access(0, 0, 100, false)
	// Remove the block from its bank behind the bookkeeping's back.
	bank, set := s.Map.Shared(100)
	if _, ok := s.Bank[bank].Invalidate(set, cache.LineQuery(100)); !ok {
		t.Fatal("setup: line not resident")
	}
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("phantom residency entry not detected")
	}
}

func TestInjectOrphanBlockDetected(t *testing.T) {
	sys := build(t, "shared")
	s := sys.Sub()
	// Insert a block directly into a bank without a residency entry.
	s.Bank[3].Insert(0, cache.Block{Valid: true, Line: 777, Class: cache.Shared, Owner: -1}, cache.FlatLRU{})
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("orphan bank block not detected")
	}
}

func TestInjectHelpCountCorruptionDetected(t *testing.T) {
	sys := build(t, "esp-nuca")
	s := sys.Sub()
	s.Bank[0].Set(0).HelpCount = 3 // no helping blocks actually present
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("helping-counter corruption not detected")
	}
}

func TestInjectDirtyAtMemoryDetected(t *testing.T) {
	sys := build(t, "private")
	s := sys.Sub()
	sys.Access(0, 2, mem.Line(300), false)
	st := s.Dir.State(s.Open(300))
	// All tokens back at memory but dirty set: impossible state.
	for c := range st.L1Tokens {
		st.MemTokens += st.L1Tokens[c]
		st.L1Tokens[c] = 0
	}
	st.MemTokens += st.L2Tokens
	st.L2Tokens = 0
	st.Owner = -2 // HolderMem
	st.Dirty = true
	if err := s.Dir.Verify(s.Open(300)); err == nil {
		t.Fatal("dirty-at-memory not detected")
	}
}
