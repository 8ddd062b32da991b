package cache

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// TestBlockSize pins Block's packed layout: 16 bytes, with the LRU stamp
// and the 8-byte tag word a scan reads kept beside it by the bank, so a
// way costs the 32 bytes a block alone took before.
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 16 {
		t.Fatalf("Block is %d bytes, want 16", got)
	}
}

// Table 2's bank timing. arch.DefaultConfig owns it; arch imports this
// package, so the tests restate it.
const testLatency, testTagLatency = 5, 2

func mustBank(t *testing.T, sets, ways int) *Bank {
	t.Helper()
	b, err := NewBank(Config{Sets: sets, Ways: ways, Latency: testLatency, TagLatency: testTagLatency})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func blk(line mem.Line, c Class, owner int) Block {
	return Block{Valid: true, Line: line, Class: c, Owner: int8(owner)}
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(Config{Sets: 0, Ways: 4}); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := NewBank(Config{Sets: 4, Ways: -1}); err == nil {
		t.Error("negative ways accepted")
	}
	b := mustBank(t, 8, 4)
	if b.Sets() != 8 || b.Ways() != 4 {
		t.Fatalf("geometry = %dx%d", b.Sets(), b.Ways())
	}
	if b.Config().Latency != testLatency || b.Config().TagLatency != testTagLatency {
		t.Fatalf("latencies = %d/%d, want %d/%d as given", b.Config().Latency, b.Config().TagLatency, testLatency, testTagLatency)
	}
}

func TestInsertAndLookup(t *testing.T) {
	b := mustBank(t, 4, 4)
	ev := b.Insert(1, blk(100, Private, 3), FlatLRU{})
	if ev.Valid || ev.Refused {
		t.Fatalf("insert into empty set evicted: %+v", ev)
	}
	got := b.Lookup(1, LineQuery(100))
	if got == nil || got.Owner != 3 || got.Class != Private {
		t.Fatalf("Lookup = %+v", got)
	}
	if b.Lookup(1, LineQuery(101)) != nil {
		t.Fatal("lookup of absent line hit")
	}
	if b.Lookup(2, LineQuery(100)) != nil {
		t.Fatal("lookup in wrong set hit")
	}
	if b.Stats.Hits != 1 || b.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestMatchClassSelectivity(t *testing.T) {
	b := mustBank(t, 1, 4)
	b.Insert(0, blk(7, Private, 0), FlatLRU{})
	b.Insert(0, blk(7, Shared, -1), FlatLRU{})
	if got := b.Lookup(0, ClassQuery(7, Shared)); got == nil || got.Class != Shared {
		t.Fatalf("shared lookup = %+v", got)
	}
	if got := b.Lookup(0, ClassQuery(7, Private)); got == nil || got.Class != Private {
		t.Fatalf("private lookup = %+v", got)
	}
	if got := b.Lookup(0, ClassQuery(7, Victim, Replica)); got != nil {
		t.Fatalf("helping lookup hit a first-class block: %+v", got)
	}
}

func TestFlatLRUEvictsOldest(t *testing.T) {
	b := mustBank(t, 1, 2)
	b.Insert(0, blk(1, Private, 0), FlatLRU{})
	b.Insert(0, blk(2, Private, 0), FlatLRU{})
	b.Lookup(0, LineQuery(1)) // touch 1; 2 becomes LRU
	ev := b.Insert(0, blk(3, Private, 0), FlatLRU{})
	if !ev.Valid || ev.Block.Line != 2 {
		t.Fatalf("evicted %+v, want line 2", ev)
	}
	if b.Peek(0, LineQuery(1)) == nil || b.Peek(0, LineQuery(3)) == nil {
		t.Fatal("resident set wrong after eviction")
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	b := mustBank(t, 1, 2)
	b.Insert(0, blk(1, Private, 0), FlatLRU{})
	b.Insert(0, blk(2, Private, 0), FlatLRU{})
	b.Peek(0, LineQuery(1)) // must NOT refresh line 1
	ev := b.Insert(0, blk(3, Private, 0), FlatLRU{})
	if !ev.Valid || ev.Block.Line != 1 {
		t.Fatalf("evicted %+v, want line 1 (Peek must not touch LRU)", ev)
	}
}

func TestInvalidate(t *testing.T) {
	b := mustBank(t, 1, 4)
	b.Insert(0, blk(5, Victim, 2), FlatLRU{})
	if b.Set(0).HelpCount != 1 {
		t.Fatalf("HelpCount = %d, want 1", b.Set(0).HelpCount)
	}
	old, ok := b.Invalidate(0, LineQuery(5))
	if !ok || old.Line != 5 {
		t.Fatalf("Invalidate = %+v, %v", old, ok)
	}
	if b.Set(0).HelpCount != 0 {
		t.Fatalf("HelpCount = %d after invalidate, want 0", b.Set(0).HelpCount)
	}
	if _, ok := b.Invalidate(0, LineQuery(5)); ok {
		t.Fatal("double invalidate succeeded")
	}
}

func TestReclassMaintainsHelpCount(t *testing.T) {
	b := mustBank(t, 1, 4)
	b.Insert(0, blk(5, Private, 2), FlatLRU{})
	if !b.Reclass(0, LineQuery(5), Victim, 2) {
		t.Fatal("Reclass failed")
	}
	if b.Set(0).HelpCount != 1 {
		t.Fatalf("HelpCount = %d after private->victim, want 1", b.Set(0).HelpCount)
	}
	if !b.Reclass(0, LineQuery(5), Shared, -1) {
		t.Fatal("Reclass failed")
	}
	if b.Set(0).HelpCount != 0 {
		t.Fatalf("HelpCount = %d after victim->shared, want 0", b.Set(0).HelpCount)
	}
	if b.Reclass(0, LineQuery(99), Shared, -1) {
		t.Fatal("Reclass of absent line succeeded")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRefusedOnlyForHelping(t *testing.T) {
	b := mustBank(t, 1, 1)
	b.Insert(0, blk(1, Private, 0), FlatLRU{})
	refuse := policyFunc(func(*Bank, int, Class) int { return -1 })
	ev := b.Insert(0, blk(2, Replica, 0), refuse)
	if !ev.Refused {
		t.Fatal("helping insert not refused")
	}
	if b.Stats.HelpRefused != 1 {
		t.Fatalf("HelpRefused = %d", b.Stats.HelpRefused)
	}
	defer func() {
		if recover() == nil {
			t.Error("refusing a first-class block did not panic")
		}
	}()
	b.Insert(0, blk(3, Private, 0), refuse)
}

type policyFunc func(*Bank, int, Class) int

func (f policyFunc) PickVictim(b *Bank, s int, c Class) int { return f(b, s, c) }

func TestBankPortSerializes(t *testing.T) {
	b := mustBank(t, 4, 4)
	first := b.Access(0)
	second := b.Access(0)
	if first != testLatency || second != 2*testLatency {
		t.Fatalf("accesses complete at %d,%d; want %d,%d", first, second, testLatency, 2*testLatency)
	}
	tp := b.TagProbe(20)
	if tp != 20+testTagLatency {
		t.Fatalf("tag probe completes at %d, want %d", tp, 20+testTagLatency)
	}
}

func TestLRUWayFilter(t *testing.T) {
	b := mustBank(t, 1, 3)
	b.Insert(0, blk(1, Private, 0), FlatLRU{})
	b.Insert(0, blk(2, Shared, -1), FlatLRU{})
	b.Insert(0, blk(3, Victim, 1), FlatLRU{})
	w := b.LRUWay(0, HelpingMask)
	if w < 0 || b.Set(0).Blocks[w].Line != 3 {
		t.Fatalf("helping LRU way = %d", w)
	}
	if b.LRUWay(0, MaskReplica) != -1 {
		t.Fatal("LRUWay found nonexistent class")
	}
}

func TestStaticPartitionHardSplit(t *testing.T) {
	b := mustBank(t, 1, 4)
	pol := StaticPartition{PrivateWays: 3}
	// Fill 3 private + 1 shared.
	b.Insert(0, blk(1, Private, 0), pol)
	b.Insert(0, blk(2, Private, 0), pol)
	b.Insert(0, blk(3, Private, 0), pol)
	b.Insert(0, blk(4, Shared, -1), pol)
	// New private block must evict a private block (partition full at 3).
	ev := b.Insert(0, blk(5, Private, 0), pol)
	if !ev.Valid || ev.Block.Class != Private {
		t.Fatalf("evicted %+v, want a private block", ev)
	}
	// New shared block must evict the shared block (its budget is 1).
	ev = b.Insert(0, blk(6, Shared, -1), pol)
	if !ev.Valid || ev.Block.Class != Shared {
		t.Fatalf("evicted %+v, want the shared block", ev)
	}
}

func TestStaticPartitionTakesFromOtherSideWhenUnderBudget(t *testing.T) {
	b := mustBank(t, 1, 4)
	pol := StaticPartition{PrivateWays: 3}
	// 4 shared blocks fill the set; shared budget is only 1.
	for i := 1; i <= 4; i++ {
		b.Insert(0, blk(mem.Line(i), Shared, -1), pol)
	}
	// A private block is under its budget (0 < 3): takes a shared way.
	ev := b.Insert(0, blk(10, Private, 0), pol)
	if !ev.Valid || ev.Block.Class != Shared {
		t.Fatalf("evicted %+v, want a shared block", ev)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	b := mustBank(t, 1, 4)
	b.Insert(0, blk(1, Replica, 0), FlatLRU{})
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("clean bank reported %v", err)
	}
	b.Set(0).HelpCount = 5
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("corrupted HelpCount not detected")
	}
	b.Set(0).HelpCount = 1
	// A tag word that disagrees with its block.
	b.tags[0] ^= uint64(MaskReplica | MaskVictim)
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "tag word") {
		t.Fatalf("corrupted tag word reported %v", err)
	}
	b.tags[0] ^= uint64(MaskReplica | MaskVictim)
	// Duplicate same-class copies of one line are illegal; make one
	// through the bank's own methods, so only the duplicate is wrong.
	b.Insert(0, blk(1, Victim, 0), FlatLRU{})
	b.Reclass(0, ClassQuery(1, Victim), Replica, 0)
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate copy reported %v", err)
	}
}

// TestTagWordsFollowBlocks checks that every block change through the
// bank (insert, eviction, invalidation, reclass) leaves each way's tag
// word equal to the one its block gives, and that an invalid way's word
// is zero.
func TestTagWordsFollowBlocks(t *testing.T) {
	rng := sim.NewRNG(5)
	b := mustBank(t, 4, 4)
	classes := []Class{Private, Shared, Replica, Victim}
	for op := 0; op < 5000; op++ {
		set, line, c := rng.Intn(4), mem.Line(rng.Intn(32)), classes[rng.Intn(4)]
		switch rng.Intn(3) {
		case 0:
			if b.Peek(set, ClassQuery(line, c)) == nil {
				b.Insert(set, blk(line, c, 0), FlatLRU{})
			}
		case 1:
			b.Invalidate(set, ClassQuery(line, c))
		case 2:
			to := classes[rng.Intn(4)]
			if b.Peek(set, ClassQuery(line, to)) == nil {
				b.Reclass(set, ClassQuery(line, c), to, 1)
			}
		}
		for i := range b.tags {
			blk := &b.sets[i/4].Blocks[i%4]
			if want := tagWord(blk); b.tags[i] != want || !blk.Valid && b.tags[i] != 0 {
				t.Fatalf("op %d: way %d word %#x, block %+v gives %#x", op, i, b.tags[i], *blk, want)
			}
		}
	}
}

// Property: under random insert/lookup/invalidate/reclass traffic with
// flat LRU, the helping counter invariant holds and Insert never reports
// eviction from a set with free ways.
func TestBankInvariantProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		b, _ := NewBank(Config{Sets: 4, Ways: 4, Latency: testLatency, TagLatency: testTagLatency})
		classes := []Class{Private, Shared, Replica, Victim}
		for op := 0; op < 2000; op++ {
			set := rng.Intn(4)
			line := mem.Line(rng.Intn(64))
			switch rng.Intn(4) {
			case 0:
				// Avoid duplicate same-class same-line copies, as the
				// coherence layer does.
				c := classes[rng.Intn(4)]
				if b.Peek(set, ClassQuery(line, c)) == nil {
					b.Insert(set, blk(line, c, rng.Intn(8)), FlatLRU{})
				}
			case 1:
				b.Lookup(set, LineQuery(line))
			case 2:
				b.Invalidate(set, LineQuery(line))
			case 3:
				c := classes[rng.Intn(4)]
				if b.Peek(set, ClassQuery(line, c)) == nil {
					b.Reclass(set, LineQuery(line), c, rng.Intn(8))
				}
			}
			if err := b.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestShadowPolicyLearnsUtility(t *testing.T) {
	p := NewShadowPolicy(1, 8)
	b := mustBank(t, 1, 4)
	// Fill with 2 private + 2 shared.
	b.Insert(0, blk(1, Private, 0), p)
	b.Insert(0, blk(2, Private, 0), p)
	b.Insert(0, blk(3, Shared, -1), p)
	b.Insert(0, blk(4, Shared, -1), p)
	// Repeatedly miss on a cycling private working set one line larger
	// than the cache: every miss re-references a just-evicted line, so
	// private marginal utility should grow and push evictions to the
	// shared side.
	for i := 0; i < 40; i++ {
		line := mem.Line(10 + i%5)
		if b.Lookup(0, ClassQuery(line, Private)) == nil {
			p.OnMiss(0, line, Private)
			b.Insert(0, blk(line, Private, 0), p)
		}
	}
	priv, shared := p.Utility(0)
	if priv <= shared {
		t.Fatalf("private utility %d not above shared %d", priv, shared)
	}
	// With private utility dominant, a new private insert should evict
	// from the shared side while any shared blocks remain.
	if b.Peek(0, ClassQuery(3, Shared)) != nil || b.Peek(0, ClassQuery(4, Shared)) != nil {
		ev := b.Insert(0, blk(99, Private, 0), p)
		if !ev.Valid || sideOfTest(ev.Block.Class) != 1 {
			t.Fatalf("evicted %+v, want a shared-side block", ev)
		}
	}
}

func sideOfTest(c Class) int {
	if c == Private || c == Replica {
		return 0
	}
	return 1
}

func TestShadowPolicyFallsBackAcrossSides(t *testing.T) {
	p := NewShadowPolicy(1, 8)
	b := mustBank(t, 1, 2)
	b.Insert(0, blk(1, Private, 0), p)
	b.Insert(0, blk(2, Private, 0), p)
	// Shared utility is zero, shared side empty: a shared insert must
	// still find a victim (falls back to private side).
	ev := b.Insert(0, blk(3, Shared, -1), p)
	if !ev.Valid || ev.Block.Class != Private {
		t.Fatalf("evicted %+v, want private fallback", ev)
	}
}

func TestClassPredicates(t *testing.T) {
	if !Private.FirstClass() || !Shared.FirstClass() {
		t.Error("first-class predicate wrong")
	}
	if Private.Helping() || Shared.Helping() {
		t.Error("helping predicate wrong for first-class")
	}
	if !Replica.Helping() || !Victim.Helping() {
		t.Error("helping predicate wrong for helping classes")
	}
	for _, c := range []Class{Private, Shared, Replica, Victim} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
	for _, r := range []SetRole{Conventional, Reference, Explorer} {
		if r.String() == "" {
			t.Error("empty role name")
		}
	}
}

// Property: under random traffic the static partition never lets a side
// exceed its budget once the set is full (the partition is hard).
func TestStaticPartitionBudgetProperty(t *testing.T) {
	prop := func(seed uint64, budget8 uint8) bool {
		rng := sim.NewRNG(seed)
		ways := 8
		budget := int(budget8%7) + 1 // 1..7 private ways
		b, _ := NewBank(Config{Sets: 2, Ways: ways, Latency: testLatency, TagLatency: testTagLatency})
		pol := StaticPartition{PrivateWays: budget}
		classes := []Class{Private, Shared}
		for op := 0; op < 600; op++ {
			set := rng.Intn(2)
			line := mem.Line(rng.Intn(512))
			c := classes[rng.Intn(2)]
			if b.Peek(set, ClassQuery(line, c)) != nil {
				continue
			}
			b.Insert(set, Block{Valid: true, Line: line, Class: c, Owner: 0}, pol)
			// Once full, each side must stay within its budget +/- the
			// one-way transient of the current insertion.
			full := true
			priv := 0
			for w := 0; w < ways; w++ {
				blk := &b.Set(set).Blocks[w]
				if !blk.Valid {
					full = false
					break
				}
				if blk.Class == Private || blk.Class == Replica {
					priv++
				}
			}
			if full && op > 100 {
				if priv > budget+1 || (ways-priv) > (ways-budget)+1 {
					return false
				}
			}
		}
		return b.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the shadow policy always returns a legal victim for a full
// set (never -1 for first-class insertions) and its shadow FIFOs never
// exceed their configured depth.
func TestShadowPolicyBoundsProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		b, _ := NewBank(Config{Sets: 2, Ways: 4, Latency: testLatency, TagLatency: testTagLatency})
		p := NewShadowPolicy(2, 8)
		classes := []Class{Private, Shared}
		for op := 0; op < 500; op++ {
			set := rng.Intn(2)
			line := mem.Line(rng.Intn(128))
			c := classes[rng.Intn(2)]
			if b.Peek(set, ClassQuery(line, c)) == nil {
				p.OnMiss(set, line, c)
				ev := b.Insert(set, Block{Valid: true, Line: line, Class: c, Owner: 0}, p)
				if ev.Refused {
					return false // shadow policy must never refuse
				}
			}
		}
		return b.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHelpingBlocksCounter checks the bank-wide O(1) helping-block
// counter against a full recount through every mutation path: place,
// evict, invalidate and reclass, across multiple sets.
func TestHelpingBlocksCounter(t *testing.T) {
	b := mustBank(t, 4, 2)
	recount := func() int {
		n := 0
		for si := 0; si < b.Sets(); si++ {
			n += b.Set(si).recount()
		}
		return n
	}
	check := func(step string) {
		t.Helper()
		if got, want := b.HelpingBlocks(), recount(); got != want {
			t.Fatalf("%s: HelpingBlocks() = %d, recount %d", step, got, want)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	check("empty")
	b.Insert(0, blk(1, Replica, 0), FlatLRU{})
	b.Insert(0, blk(2, Victim, 1), FlatLRU{})
	b.Insert(1, blk(3, Private, 0), FlatLRU{})
	check("after inserts")
	// Evicting a helping block through a full set decrements the counter.
	b.Insert(0, blk(4, Private, 2), FlatLRU{})
	check("after evicting helper")
	// Reclass in both directions.
	b.Reclass(1, LineQuery(3), Victim, 0)
	check("first-class -> helping")
	b.Reclass(1, LineQuery(3), Shared, -1)
	check("helping -> first-class")
	// Invalidate a helping block.
	if _, ok := b.Invalidate(0, LineQuery(2)); !ok {
		t.Fatal("line 2 missing")
	}
	check("after invalidate")
	if b.HelpingBlocks() != recount() {
		t.Fatal("counter drifted")
	}
}

// benchBank is an L2 bank of the scaled machine (32 sets of 16 ways;
// arch owns the geometry, and arch imports this package) filled with
// blocks of every class, and a query stream over it: n lines, about half
// of them resident, each with the set it maps to.
func benchBank(b *testing.B, n int) (*Bank, []mem.Line) {
	const sets, ways = 32, 16
	bank, err := NewBank(Config{Sets: sets, Ways: ways, Latency: testLatency, TagLatency: testTagLatency})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	classes := []Class{Private, Shared, Replica, Victim}
	for line := mem.Line(0); line < sets*ways; line++ {
		bank.Insert(int(line%sets), blk(line, classes[rng.Intn(4)], rng.Intn(8)), FlatLRU{})
	}
	lines := make([]mem.Line, n)
	for i := range lines {
		lines[i] = mem.Line(rng.Intn(2 * sets * ways))
	}
	return bank, lines
}

// BenchmarkBankLookup times one tag lookup in a full 16-way L2 bank,
// alternating a line query and a first-class query over a stream that
// hits about half the time.
func BenchmarkBankLookup(b *testing.B) {
	bank, lines := benchBank(b, 1<<12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lines[i%len(lines)]
		q := LineQuery(l)
		if i&1 != 0 {
			q.Classes = FirstClassMask
		}
		bank.Lookup(int(l%32), q)
	}
}

// BenchmarkBankInsert times one fill of a full 16-way L2 bank under flat
// LRU: the empty-way scan, the LRU victim scan and the eviction.
func BenchmarkBankInsert(b *testing.B) {
	bank, _ := benchBank(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := mem.Line(512 + i)
		bank.Insert(int(l%32), blk(l, Private, 0), FlatLRU{})
	}
}
