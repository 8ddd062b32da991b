package coherence

import (
	"testing"
	"testing/quick"

	"espnuca/internal/cache"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// mapTable is a map-backed Table: the directory's storage in tests.
type mapTable map[mem.Line]*LineState

// ref is line l's handle in a mapTable, which keys by line alone.
func ref(l mem.Line) Ref { return Ref{Line: l} }

func (m mapTable) Find(l mem.Line) (Ref, bool) {
	_, ok := m[l]
	return Ref{Line: l}, ok
}

func (m mapTable) State(r Ref) *LineState {
	s, ok := m[r.Line]
	if !ok {
		st := MemoryState()
		s = &st
		m[r.Line] = s
	}
	return s
}

func (m mapTable) Peek(r Ref) *LineState { return m[r.Line] }

// verifyAll checks token conservation on every line d's map holds.
func verifyAll(d *Directory) error {
	for l := range d.Table.(mapTable) {
		if err := d.Verify(ref(l)); err != nil {
			return err
		}
	}
	return nil
}

func newDir() *Directory {
	d := NewDirectory(mapTable{})
	d.Check = true
	return d
}

func TestDirectoryInitialState(t *testing.T) {
	d := newDir()
	s := d.State(ref(5))
	if s.MemTokens != TokensPerLine || s.Owner != HolderMem {
		t.Fatalf("initial state = %+v", s)
	}
	if n := len(d.Table.(mapTable)); n != 1 {
		t.Fatalf("%d lines materialized", n)
	}
	if d.PeekLine(6) != nil {
		t.Fatal("Peek materialized a line")
	}
	if err := verifyAll(d); err != nil {
		t.Fatal(err)
	}
}

func TestGrantReadFromMemory(t *testing.T) {
	d := newDir()
	d.GrantReadL1(ref(1), 3)
	s := d.State(ref(1))
	if s.L1Tokens[3] != 1 || s.MemTokens != TokensPerLine-1 {
		t.Fatalf("state = %+v", s)
	}
	// Idempotent for a core already holding a token.
	d.GrantReadL1(ref(1), 3)
	if s.L1Tokens[3] != 1 {
		t.Fatalf("second grant changed tokens: %+v", s)
	}
	if s.Sharers() != 1<<3 || s.SharerCount() != 1 {
		t.Fatalf("sharers = %b", s.Sharers())
	}
}

func TestGrantReadPrefersL2(t *testing.T) {
	d := newDir()
	d.L2Fill(ref(1), 4)
	d.GrantReadL1(ref(1), 0)
	s := d.State(ref(1))
	if s.L2Tokens != 3 || s.L1Tokens[0] != 1 {
		t.Fatalf("state = %+v", s)
	}
}

func TestGrantWriteCollectsAllTokens(t *testing.T) {
	d := newDir()
	d.GrantReadL1(ref(1), 0)
	d.GrantReadL1(ref(1), 1)
	d.L2Fill(ref(1), 2)
	d.GrantWriteL1(ref(1), 2)
	s := d.State(ref(1))
	if s.L1Tokens[2] != TokensPerLine {
		t.Fatalf("writer tokens = %d", s.L1Tokens[2])
	}
	if s.Sharers() != 1<<2 {
		t.Fatalf("sharers after write = %b", s.Sharers())
	}
	if !s.Dirty || s.Owner != L1Holder(2) {
		t.Fatalf("owner/dirty = %v/%v", s.Owner, s.Dirty)
	}
}

func TestGrantReadStealsFromRichL1(t *testing.T) {
	d := newDir()
	d.GrantWriteL1(ref(1), 0) // core 0 has all 8 tokens
	d.GrantReadL1(ref(1), 5)
	s := d.State(ref(1))
	if s.L1Tokens[0] != 7 || s.L1Tokens[5] != 1 {
		t.Fatalf("state = %+v", s)
	}
	// Ownership stays with core 0 (it still holds tokens).
	if s.Owner != L1Holder(0) {
		t.Fatalf("owner = %v", s.Owner)
	}
}

func TestOwnershipMovesWhenLastTokenStolen(t *testing.T) {
	d := newDir()
	// Core 0 is owner with exactly 1 token, rest at... construct: write
	// at 0, then 7 reads drain it to 1 token.
	d.GrantWriteL1(ref(1), 0)
	for c := 1; c < 8; c++ {
		d.GrantReadL1(ref(1), c)
	}
	s := d.State(ref(1))
	if s.L1Tokens[0] != 1 {
		t.Fatalf("core 0 tokens = %d, want 1", s.L1Tokens[0])
	}
	// Next grant must steal core 0's last token and move ownership.
	d.L1Evict(ref(1), 3, false) // free a slot: core 3 gives its token to memory
	d.GrantReadL1(ref(1), 3)    // takes from memory, not core 0
	if s.L1Tokens[0] != 1 {
		t.Fatalf("grant stole from owner despite memory tokens: %+v", s)
	}
}

func TestL1EvictToMemory(t *testing.T) {
	d := newDir()
	d.GrantWriteL1(ref(1), 4)
	dirty := d.L1Evict(ref(1), 4, false)
	if !dirty {
		t.Fatal("dirty eviction not reported")
	}
	s := d.State(ref(1))
	if s.MemTokens != TokensPerLine || s.Owner != HolderMem || s.Dirty {
		t.Fatalf("state = %+v", s)
	}
	// Evicting a non-holder is a no-op.
	if d.L1Evict(ref(1), 2, false) {
		t.Fatal("non-holder eviction reported dirty")
	}
}

func TestL1EvictToL2KeepsDirtyOnChip(t *testing.T) {
	d := newDir()
	d.GrantWriteL1(ref(1), 4)
	dirty := d.L1Evict(ref(1), 4, true)
	if !dirty {
		t.Fatal("dirty write-back to L2 not reported")
	}
	s := d.State(ref(1))
	if s.L2Tokens != TokensPerLine || s.Owner != HolderL2 {
		t.Fatalf("state = %+v", s)
	}
	if !s.Dirty {
		t.Fatal("L2 copy must stay dirty (no DRAM update)")
	}
}

func TestL2EvictReturnsDirty(t *testing.T) {
	d := newDir()
	d.GrantWriteL1(ref(1), 4)
	d.L1Evict(ref(1), 4, true)
	dirty := d.L2Evict(ref(1))
	if !dirty {
		t.Fatal("dirty L2 eviction not reported")
	}
	s := d.State(ref(1))
	if s.MemTokens != TokensPerLine || s.Dirty {
		t.Fatalf("state = %+v", s)
	}
	if d.L2Evict(ref(1)) {
		t.Fatal("second eviction reported dirty")
	}
}

func TestWriteBackDirty(t *testing.T) {
	d := newDir()
	d.L2Fill(ref(1), 8)
	d.WriteBackDirty(ref(1))
	if !d.State(ref(1)).Dirty {
		t.Fatal("L2 copy not marked dirty")
	}
}

func TestVerifyDetectsViolation(t *testing.T) {
	d := NewDirectory(mapTable{})
	s := d.State(ref(9))
	s.MemTokens = 3 // break conservation
	if err := d.Verify(ref(9)); err == nil {
		t.Fatal("token loss not detected")
	}
	s.MemTokens = TokensPerLine
	s.Dirty = true // dirty at memory owner is illegal
	if err := d.Verify(ref(9)); err == nil {
		t.Fatal("dirty-at-memory not detected")
	}
}

// Property: any sequence of coherence operations conserves tokens and
// keeps owner validity (Check panics on violation, so survival = pass).
func TestTokenConservationProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		d := newDir()
		lines := []mem.Line{1, 2, 3}
		for op := 0; op < 3000; op++ {
			l := lines[rng.Intn(len(lines))]
			c := rng.Intn(8)
			switch rng.Intn(6) {
			case 0:
				d.GrantReadL1(ref(l), c)
			case 1:
				d.GrantWriteL1(ref(l), c)
			case 2:
				d.L1Evict(ref(l), c, rng.Intn(2) == 0)
			case 3:
				d.L2Fill(ref(l), uint8(rng.Intn(9)))
			case 4:
				d.L2Evict(ref(l))
			case 5:
				d.WriteBackDirty(ref(l))
			}
		}
		return verifyAll(d) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- L1s ---

func newL1s(t *testing.T) (*L1s, *Directory) {
	t.Helper()
	d := newDir()
	cfg := L1Config{Bytes: 1024, Ways: 2, BlockBytes: 64, Latency: 3, TagLatency: 1}
	l, err := NewL1s(8, cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	return l, d
}

func TestL1LookupMissThenHit(t *testing.T) {
	l, d := newL1s(t)
	if l.Lookup(0, 100, false, false) {
		t.Fatal("cold lookup hit")
	}
	d.GrantReadL1(ref(100), 0)
	l.Fill(0, 100, false, false)
	if !l.Lookup(0, 100, false, false) {
		t.Fatal("filled line missed")
	}
	if dh, dm, _, _ := l.Totals(); dh != 1 || dm != 1 {
		t.Fatalf("hits=%d misses=%d", dh, dm)
	}
}

func TestL1WriteHitNeedsAllTokens(t *testing.T) {
	l, d := newL1s(t)
	d.GrantReadL1(ref(100), 0)
	d.GrantReadL1(ref(100), 1)
	l.Fill(0, 100, false, false)
	// Core 0 has 1 token: a write lookup is an upgrade miss.
	if l.Lookup(0, 100, true, false) {
		t.Fatal("write hit without all tokens")
	}
	d.GrantWriteL1(ref(100), 0)
	if !l.Lookup(0, 100, true, false) {
		t.Fatal("write miss despite holding all tokens")
	}
}

func TestL1SplitIAndD(t *testing.T) {
	l, d := newL1s(t)
	d.GrantReadL1(ref(100), 0)
	l.Fill(0, 100, false, true) // instruction side
	if l.Lookup(0, 100, false, false) {
		t.Fatal("data lookup hit the instruction array")
	}
	if !l.Lookup(0, 100, false, true) {
		t.Fatal("instruction lookup missed")
	}
	if _, dm, ih, _ := l.Totals(); ih != 1 || dm != 1 {
		t.Fatalf("instr hits=%d data misses=%d", ih, dm)
	}
}

func TestL1FillEvictsAndReportsDirty(t *testing.T) {
	l, d := newL1s(t)
	// Set count: 1024/64/2 = 8 sets. Lines 0, 8, 16 conflict in set 0.
	d.GrantWriteL1(ref(0), 0)
	l.Fill(0, 0, true, false)
	d.GrantReadL1(ref(8), 0)
	l.Fill(0, 8, false, false)
	d.GrantReadL1(ref(16), 0)
	wb := l.Fill(0, 16, false, false)
	if !wb.Valid || wb.Line != 0 || !wb.Dirty {
		t.Fatalf("writeback = %+v, want dirty line 0", wb)
	}
}

func TestL1FillUpgradeInPlace(t *testing.T) {
	l, d := newL1s(t)
	d.GrantReadL1(ref(100), 0)
	l.Fill(0, 100, false, false)
	d.GrantWriteL1(ref(100), 0)
	wb := l.Fill(0, 100, true, false)
	if wb.Valid {
		t.Fatalf("upgrade fill displaced %+v", wb)
	}
	set := l.SetOf(100)
	blk := l.data[0].Peek(set, cache.LineQuery(100))
	if blk == nil || !blk.Dirty {
		t.Fatal("upgrade did not mark dirty")
	}
}

func TestL1AccessTiming(t *testing.T) {
	l, _ := newL1s(t)
	if got := l.Access(0, 0, false); got != 3 {
		t.Fatalf("L1 access completes at %d, want 3", got)
	}
	if got := l.Access(0, 1, false); got != 3 {
		t.Fatalf("other core's L1 contended: %d", got)
	}
}

func TestNewL1sValidation(t *testing.T) {
	d := newDir()
	if _, err := NewL1s(8, L1Config{Bytes: 0, Ways: 2, BlockBytes: 64}, d); err == nil {
		t.Error("zero-byte L1 accepted")
	}
	if _, err := NewL1s(8, L1Config{Bytes: 64, Ways: 2, BlockBytes: 64}, d); err == nil {
		t.Error("L1 with no sets accepted")
	}
}

func TestDefaultL1ConfigGeometry(t *testing.T) {
	cfg := DefaultL1Config()
	if cfg.Bytes != 32*1024 || cfg.Ways != 4 || cfg.Latency != 3 {
		t.Fatalf("default L1 = %+v", cfg)
	}
	d := newDir()
	l, err := NewL1s(8, cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if l.sets != 128 {
		t.Fatalf("sets = %d, want 128", l.sets)
	}
}
