package coherence_test

import (
	"math/rand"
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/coherence"
	"espnuca/internal/mem"
)

// refTable is a plain map Table: a state is materialized on first State
// and never erased, which is what a table sees when only the directory
// touches it.
type refTable map[mem.Line]*coherence.LineState

func (m refTable) Find(l mem.Line) (coherence.Ref, bool) {
	_, ok := m[l]
	return coherence.Ref{Line: l}, ok
}

func (m refTable) State(r coherence.Ref) *coherence.LineState {
	st, ok := m[r.Line]
	if !ok {
		v := coherence.MemoryState()
		st = &v
		m[r.Line] = st
	}
	return st
}

func (m refTable) Peek(r coherence.Ref) *coherence.LineState { return m[r.Line] }

// TestDirectoryDifferential drives the directory over the substrate's
// line record (its production table) and over a plain map with the same
// random stream of token movements, and requires the two to return the
// same results and hold the same state at every step. A small hot set of
// lines keeps states moving between holders; a wide cold range keeps
// materializing new lines, so the record table grows between
// transactions.
func TestDirectoryDifferential(t *testing.T) {
	cfg := arch.ScaledConfig()
	cfg.CheckTokens = true
	sub, err := arch.NewSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := sub.Dir
	ref := coherence.NewDirectory(refTable{})
	ref.Check = true
	rng := rand.New(rand.NewSource(42))
	const hot, cold = 96, 1 << 20

	check := func(op int, l mem.Line) {
		t.Helper()
		g, r := got.PeekLine(l), ref.PeekLine(l)
		if (g == nil) != (r == nil) || g != nil && *g != *r {
			t.Fatalf("op %d: line %d state %+v, ref %+v", op, l, g, r)
		}
		if h, ok := got.Find(l); ok {
			if err := got.Verify(h); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}

	for op := 0; op < 300_000; op++ {
		l := mem.Line(rng.Intn(hot))
		if rng.Intn(2) == 0 {
			l = mem.Line(hot + rng.Intn(cold))
		}
		c := rng.Intn(coherence.TokensPerLine)
		gl, rl := sub.Open(l), coherence.Ref{Line: l}
		switch rng.Intn(8) {
		case 0, 1: // a load takes a token
			got.GrantReadL1(gl, c)
			ref.GrantReadL1(rl, c)
		case 2: // a store collects every token
			got.GrantWriteL1(gl, c)
			ref.GrantWriteL1(rl, c)
		case 3, 4: // an L1 eviction to the L2 or to memory
			toL2 := rng.Intn(2) == 0
			if g, r := got.L1Evict(gl, c, toL2), ref.L1Evict(rl, c, toL2); g != r {
				t.Fatalf("op %d: L1Evict(%d,%d,%v) dirty %v, ref %v", op, l, c, toL2, g, r)
			}
		case 5: // a fill from memory
			n := uint8(rng.Intn(coherence.TokensPerLine + 1))
			got.L2Fill(gl, n)
			ref.L2Fill(rl, n)
		case 6: // the L2 releases its tokens to memory
			if g, r := got.L2Evict(gl), ref.L2Evict(rl); g != r {
				t.Fatalf("op %d: L2Evict(%d) dirty %v, ref %v", op, l, g, r)
			}
		case 7: // a dirty write-back lands in the L2
			got.WriteBackDirty(gl)
			ref.WriteBackDirty(rl)
		}
		check(op, l)
	}
	// Final sweep over every line the reference holds and the hot set.
	for l := range ref.Table.(refTable) {
		check(-1, l)
	}
	for l := mem.Line(0); l < hot; l++ {
		check(-1, l)
	}
}
