package core

import (
	"testing"
	"testing/quick"

	"espnuca/internal/cache"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

func mustMapping(t *testing.T) Mapping {
	t.Helper()
	m, err := NewMapping(32, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMappingValidation(t *testing.T) {
	if _, err := NewMapping(31, 8, 256); err == nil {
		t.Error("non-power-of-two banks accepted")
	}
	if _, err := NewMapping(32, 7, 256); err == nil {
		t.Error("non-power-of-two cores accepted")
	}
	if _, err := NewMapping(32, 8, 255); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := NewMapping(4, 8, 256); err == nil {
		t.Error("fewer banks than cores accepted")
	}
}

func TestMappingGeometry(t *testing.T) {
	m := mustMapping(t)
	if m.Banks() != 32 || m.Cores() != 8 || m.BanksPerCore() != 4 || m.SetsPerBank() != 256 {
		t.Fatalf("geometry: %d banks, %d cores, %d per core, %d sets",
			m.Banks(), m.Cores(), m.BanksPerCore(), m.SetsPerBank())
	}
	if m.ExtraTagBits() != 3 {
		t.Fatalf("ExtraTagBits = %d, want p=3", m.ExtraTagBits())
	}
}

func TestSharedMappingUsesLowBits(t *testing.T) {
	m := mustMapping(t)
	// Paper Fig 1b: low n bits above the block offset select the bank.
	bank, set := m.Shared(0)
	if bank != 0 || set != 0 {
		t.Fatalf("Shared(0) = %d,%d", bank, set)
	}
	bank, _ = m.Shared(31)
	if bank != 31 {
		t.Fatalf("Shared(31) bank = %d, want 31", bank)
	}
	bank, set = m.Shared(32)
	if bank != 0 || set != 1 {
		t.Fatalf("Shared(32) = %d,%d, want 0,1", bank, set)
	}
}

func TestPrivateMappingStaysInGroup(t *testing.T) {
	m := mustMapping(t)
	for c := 0; c < 8; c++ {
		lo, hi := m.PrivateBanks(c)
		if hi-lo != 4 || lo != c*4 {
			t.Fatalf("PrivateBanks(%d) = [%d,%d)", c, lo, hi)
		}
		for l := mem.Line(0); l < 1000; l += 7 {
			bank, set := m.Private(l, c)
			if bank < lo || bank >= hi {
				t.Fatalf("Private(%d, core %d) bank %d outside [%d,%d)", l, c, bank, lo, hi)
			}
			if set < 0 || set >= 256 {
				t.Fatalf("set %d out of range", set)
			}
			if m.CoreOfBank(bank) != c {
				t.Fatalf("CoreOfBank(%d) = %d, want %d", bank, m.CoreOfBank(bank), c)
			}
		}
	}
}

// Property: both mappings are deterministic functions of (line, core) and
// two distinct lines mapping to the same (bank,set) under the shared view
// can still be distinguished by tag — i.e. the mapping partitions lines:
// same line always maps to exactly one shared slot and one private slot
// per core.
func TestMappingDeterminismProperty(t *testing.T) {
	m := mustMapping(t)
	prop := func(l uint64, c uint8) bool {
		line := mem.Line(l)
		core := int(c % 8)
		b1, s1 := m.Shared(line)
		b2, s2 := m.Shared(line)
		p1, q1 := m.Private(line, core)
		p2, q2 := m.Private(line, core)
		return b1 == b2 && s1 == s2 && p1 == p2 && q1 == q2 &&
			b1 >= 0 && b1 < 32 && p1 >= 0 && p1 < 32
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: consecutive lines spread across all banks in the shared view
// (block interleaving) and across the core's 4 banks in the private view.
func TestMappingInterleavingProperty(t *testing.T) {
	m := mustMapping(t)
	seenShared := map[int]bool{}
	seenPrivate := map[int]bool{}
	for l := mem.Line(0); l < 64; l++ {
		b, _ := m.Shared(l)
		seenShared[b] = true
		pb, _ := m.Private(l, 3)
		seenPrivate[pb] = true
	}
	if len(seenShared) != 32 {
		t.Fatalf("shared interleaving reached %d banks, want 32", len(seenShared))
	}
	if len(seenPrivate) != 4 {
		t.Fatalf("private interleaving reached %d banks, want 4", len(seenPrivate))
	}
}

func TestCoreOfBankPanicsOutOfRange(t *testing.T) {
	m := mustMapping(t)
	defer func() {
		if recover() == nil {
			t.Error("CoreOfBank(32) did not panic")
		}
	}()
	m.CoreOfBank(32)
}

func TestPrivatePanicsOnBadCore(t *testing.T) {
	m := mustMapping(t)
	defer func() {
		if recover() == nil {
			t.Error("Private with core 8 did not panic")
		}
	}()
	m.Private(0, 8)
}

// --- Sampler / ProtectedLRU ---

// Table 2's bank timing. arch.DefaultConfig owns it; arch imports this
// package, so the tests restate it.
const testLatency, testTagLatency = 5, 2

func newBankWithRoles(t *testing.T, ways int) (*cache.Bank, *Sampler) {
	t.Helper()
	b, err := cache.NewBank(cache.Config{Sets: 16, Ways: ways, Latency: testLatency, TagLatency: testTagLatency})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSamplerConfig()
	AssignRoles(b, cfg)
	return b, NewSampler(cfg, ways)
}

func TestAssignRolesCounts(t *testing.T) {
	b, _ := newBankWithRoles(t, 16)
	var ref, exp, conv int
	for i := 0; i < b.Sets(); i++ {
		s := b.Set(i)
		if !s.Sampled {
			if s.Role != cache.Conventional {
				t.Fatalf("unsampled set %d has role %v", i, s.Role)
			}
			continue
		}
		switch s.Role {
		case cache.Reference:
			ref++
		case cache.Explorer:
			exp++
		default:
			conv++
		}
	}
	if ref != 1 || exp != 1 || conv != 2 {
		t.Fatalf("sampled sets: %d ref, %d exp, %d conv; want 1,1,2", ref, exp, conv)
	}
}

func TestSamplerLimits(t *testing.T) {
	s := NewSampler(DefaultSamplerConfig(), 16)
	s.SetNMax(4)
	if s.LimitFor(cache.Reference) != 0 {
		t.Error("reference limit != 0")
	}
	if s.LimitFor(cache.Conventional) != 4 {
		t.Error("conventional limit != nmax")
	}
	if s.LimitFor(cache.Explorer) != 5 {
		t.Error("explorer limit != nmax+1")
	}
}

func TestSamplerClamp(t *testing.T) {
	s := NewSampler(DefaultSamplerConfig(), 16)
	s.SetNMax(-3)
	if s.NMax() != 0 {
		t.Fatalf("NMax = %d, want clamp to 0", s.NMax())
	}
	s.SetNMax(100)
	if s.NMax() != 14 {
		t.Fatalf("NMax = %d, want clamp to ways-2 = 14", s.NMax())
	}
}

func TestSamplerRaisesWhenExplorerHealthy(t *testing.T) {
	cfg := DefaultSamplerConfig()
	cfg.Period = 8
	s := NewSampler(cfg, 16)
	// All three estimators see perfect first-class hit rates: helping
	// blocks are harmless, so nmax should rise.
	for i := 0; i < 400; i++ {
		s.Observe(cache.Reference, true)
		s.Observe(cache.Explorer, true)
		s.Observe(cache.Conventional, true)
	}
	if s.NMax() == 0 {
		t.Fatal("nmax did not rise despite healthy explorer sets")
	}
	if s.Raises == 0 {
		t.Fatal("Raises counter not incremented")
	}
}

func TestSamplerLowersWhenConventionalDegraded(t *testing.T) {
	cfg := DefaultSamplerConfig()
	cfg.Period = 8
	s := NewSampler(cfg, 16)
	s.SetNMax(6)
	// Reference sets hit, conventional sets miss badly: helping blocks
	// are hurting; nmax must fall.
	for i := 0; i < 400; i++ {
		s.Observe(cache.Reference, true)
		s.Observe(cache.Explorer, i%4 == 0)
		s.Observe(cache.Conventional, i%4 == 0)
	}
	if s.NMax() >= 6 {
		t.Fatalf("nmax = %d, did not fall despite degraded conventional sets", s.NMax())
	}
	if s.Lowers == 0 {
		t.Fatal("Lowers counter not incremented")
	}
}

func TestSamplerStableWhenExplorerDegradedOnly(t *testing.T) {
	cfg := DefaultSamplerConfig()
	cfg.Period = 8
	s := NewSampler(cfg, 16)
	s.SetNMax(3)
	// Conventional healthy, explorer degraded: current nmax is right,
	// one more helping block would hurt. nmax must stay.
	for i := 0; i < 400; i++ {
		s.Observe(cache.Reference, true)
		s.Observe(cache.Conventional, true)
		s.Observe(cache.Explorer, i%4 == 0)
	}
	if s.NMax() != 3 {
		t.Fatalf("nmax = %d, want stable 3", s.NMax())
	}
}

func TestSamplerStorageBits(t *testing.T) {
	s := NewSampler(DefaultSamplerConfig(), 16)
	// Paper §5.2: 4 bits per set for n, 4 bits for nmax, 24 bits of EMA.
	got := s.StorageBits(256)
	want := 256*4 + 4 + 24
	if got != want {
		t.Fatalf("StorageBits(256) = %d, want %d", got, want)
	}
}

func helpingBlock(line mem.Line, owner int) cache.Block {
	return cache.Block{Valid: true, Line: line, Class: cache.Replica, Owner: int8(owner)}
}

func firstClassBlock(line mem.Line) cache.Block {
	return cache.Block{Valid: true, Line: line, Class: cache.Private, Owner: 0}
}

func TestProtectedLRUCapsHelpingBlocks(t *testing.T) {
	b, s := newBankWithRoles(t, 4)
	s.SetNMax(2)
	pol := ProtectedLRU{S: s}
	// Pick a plain conventional (unsampled) set.
	setIdx := -1
	for i := 0; i < b.Sets(); i++ {
		if !b.Set(i).Sampled {
			setIdx = i
			break
		}
	}
	// Fill with first-class blocks.
	for i := 0; i < 4; i++ {
		b.Insert(setIdx, firstClassBlock(mem.Line(100+i)), pol)
	}
	// Two helping blocks are admitted (evicting first-class LRU)...
	b.Insert(setIdx, helpingBlock(1, 1), pol)
	b.Insert(setIdx, helpingBlock(2, 1), pol)
	if b.Set(setIdx).HelpCount != 2 {
		t.Fatalf("HelpCount = %d, want 2", b.Set(setIdx).HelpCount)
	}
	// ...the third must displace a helping block, not first-class.
	ev := b.Insert(setIdx, helpingBlock(3, 1), pol)
	if !ev.Valid || !ev.Block.Class.Helping() {
		t.Fatalf("third helping insert evicted %+v, want a helping block", ev)
	}
	if b.Set(setIdx).HelpCount != 2 {
		t.Fatalf("HelpCount = %d after capped insert, want 2", b.Set(setIdx).HelpCount)
	}
}

func TestProtectedLRUFirstClassEvictsHelpingAtCap(t *testing.T) {
	b, s := newBankWithRoles(t, 4)
	s.SetNMax(2)
	pol := ProtectedLRU{S: s}
	setIdx := 0
	for !(!b.Set(setIdx).Sampled) {
		setIdx++
	}
	b.Insert(setIdx, firstClassBlock(100), pol)
	b.Insert(setIdx, firstClassBlock(101), pol)
	b.Insert(setIdx, helpingBlock(1, 1), pol)
	b.Insert(setIdx, helpingBlock(2, 1), pol)
	// Set is full with n = nmax: an incoming first-class block evicts the
	// helping LRU (paper: n == nmax -> LRU among helping blocks).
	ev := b.Insert(setIdx, firstClassBlock(102), pol)
	if !ev.Valid || !ev.Block.Class.Helping() {
		t.Fatalf("evicted %+v, want helping block at cap", ev)
	}
	if b.Set(setIdx).HelpCount != 1 {
		t.Fatalf("HelpCount = %d, want 1 (decremented)", b.Set(setIdx).HelpCount)
	}
}

func TestProtectedLRUBelowCapUsesWholeSetLRU(t *testing.T) {
	b, s := newBankWithRoles(t, 8)
	s.SetNMax(3)
	pol := ProtectedLRU{S: s}
	setIdx := 0
	for b.Set(setIdx).Sampled {
		setIdx++
	}
	b.Insert(setIdx, firstClassBlock(100), pol) // oldest
	b.Insert(setIdx, helpingBlock(1, 1), pol)
	b.Insert(setIdx, helpingBlock(2, 1), pol)
	for i := 0; i < 5; i++ { // fill the remaining ways with first-class
		b.Insert(setIdx, firstClassBlock(mem.Line(101+i)), pol)
	}
	// n=2 < nmax=3: whole-set LRU (the first-class block 100) goes.
	ev := b.Insert(setIdx, helpingBlock(3, 1), pol)
	if !ev.Valid || ev.Block.Line != 100 {
		t.Fatalf("evicted %+v, want line 100 (whole-set LRU)", ev)
	}
	if b.Set(setIdx).HelpCount != 3 {
		t.Fatalf("HelpCount = %d, want 3", b.Set(setIdx).HelpCount)
	}
}

func TestReferenceSetRefusesHelping(t *testing.T) {
	b, s := newBankWithRoles(t, 4)
	s.SetNMax(4)
	pol := ProtectedLRU{S: s}
	refIdx := -1
	for i := 0; i < b.Sets(); i++ {
		if b.Set(i).Role == cache.Reference {
			refIdx = i
			break
		}
	}
	for i := 0; i < 4; i++ {
		b.Insert(refIdx, firstClassBlock(mem.Line(100+i)), pol)
	}
	ev := b.Insert(refIdx, helpingBlock(1, 1), pol)
	if !ev.Refused {
		t.Fatalf("reference set accepted a helping block: %+v", ev)
	}
	if b.Set(refIdx).HelpCount != 0 {
		t.Fatalf("reference set HelpCount = %d", b.Set(refIdx).HelpCount)
	}
}

func TestExplorerSetAcceptsOneExtra(t *testing.T) {
	b, s := newBankWithRoles(t, 4)
	s.SetNMax(1)
	pol := ProtectedLRU{S: s}
	expIdx := -1
	for i := 0; i < b.Sets(); i++ {
		if b.Set(i).Role == cache.Explorer {
			expIdx = i
			break
		}
	}
	b.Insert(expIdx, firstClassBlock(100), pol)
	b.Insert(expIdx, firstClassBlock(101), pol)
	b.Insert(expIdx, helpingBlock(1, 1), pol)
	b.Insert(expIdx, helpingBlock(2, 1), pol) // nmax+1 = 2 allowed
	if b.Set(expIdx).HelpCount != 2 {
		t.Fatalf("explorer HelpCount = %d, want 2", b.Set(expIdx).HelpCount)
	}
	ev := b.Insert(expIdx, helpingBlock(3, 1), pol)
	if !ev.Valid || !ev.Block.Class.Helping() {
		t.Fatalf("explorer over-cap insert evicted %+v, want helping", ev)
	}
}

// Property: under any random mix of first-class and helping inserts, a
// conventional set never holds more than nmax helping blocks after the
// budget is enforced, and the bank invariants hold throughout.
func TestProtectedLRUCapProperty(t *testing.T) {
	prop := func(seed uint64, nmax8 uint8) bool {
		rng := sim.NewRNG(seed)
		b, _ := cache.NewBank(cache.Config{Sets: 4, Ways: 8, Latency: testLatency, TagLatency: testTagLatency})
		cfg := DefaultSamplerConfig()
		s := NewSampler(cfg, 8)
		s.SetNMax(int(nmax8 % 7))
		pol := ProtectedLRU{S: s}
		classes := []cache.Class{cache.Private, cache.Shared, cache.Replica, cache.Victim}
		for op := 0; op < 1000; op++ {
			set := rng.Intn(4)
			line := mem.Line(rng.Intn(256))
			c := classes[rng.Intn(4)]
			if b.Peek(set, cache.ClassQuery(line, c)) != nil {
				continue
			}
			b.Insert(set, cache.Block{Valid: true, Line: line, Class: c, Owner: int8(rng.Intn(8))}, pol)
			if err := b.CheckInvariants(); err != nil {
				return false
			}
			// After the set is full once, the helping count must respect
			// the cap: it can exceed it only while free ways remain
			// (inserts into empty ways bypass replacement).
			full := true
			for w := 0; w < 8; w++ {
				if !b.Set(set).Blocks[w].Valid {
					full = false
					break
				}
			}
			if full && b.Set(set).HelpCount > s.NMax()+1 {
				// +1 tolerance: blocks that arrived while ways were free.
				// Enforcement happens at replacement time only, but the
				// count must never grow beyond the cap via replacement.
				evBefore := b.Set(set).HelpCount
				b.Insert(set, cache.Block{Valid: true, Line: mem.Line(1000 + op), Class: cache.Replica, Owner: 0}, pol)
				if b.Set(set).HelpCount > evBefore {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerRatesExposed(t *testing.T) {
	s := NewSampler(DefaultSamplerConfig(), 16)
	for i := 0; i < 50; i++ {
		s.Observe(cache.Reference, true)
	}
	_, hrr, _ := s.Rates()
	if hrr <= 0 {
		t.Fatalf("reference rate = %g after hits", hrr)
	}
}

func TestAssignRolesDegenerate(t *testing.T) {
	b, _ := cache.NewBank(cache.Config{Sets: 2, Ways: 4, Latency: testLatency, TagLatency: testTagLatency})
	cfg := DefaultSamplerConfig() // needs 4 sampled sets; bank has 2
	AssignRoles(b, cfg)
	for i := 0; i < b.Sets(); i++ {
		if b.Set(i).Sampled {
			t.Fatal("oversubscribed sampling not refused")
		}
	}
}

func TestMappingExtraTagBitsSmall(t *testing.T) {
	m, err := NewMapping(8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	// n == p: one bank per core, zero local-selector bits.
	if m.BanksPerCore() != 1 {
		t.Fatalf("BanksPerCore = %d", m.BanksPerCore())
	}
	bank, _ := m.Private(12345, 5)
	if bank != 5 {
		t.Fatalf("single-bank private mapping = %d, want 5", bank)
	}
}
