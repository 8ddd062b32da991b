package cache

import (
	"fmt"

	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// SetRole classifies a set for the ESP-NUCA set-sampling mechanism (paper
// §3.2). Conventional sets accept up to nmax helping blocks; Reference
// sets refuse all helping blocks; Explorer sets accept nmax+1.
type SetRole uint8

const (
	Conventional SetRole = iota
	Reference
	Explorer
)

// String implements fmt.Stringer.
func (r SetRole) String() string {
	switch r {
	case Conventional:
		return "conventional"
	case Reference:
		return "reference"
	case Explorer:
		return "explorer"
	}
	return fmt.Sprintf("SetRole(%d)", uint8(r))
}

// Set is one congruence class of a bank.
type Set struct {
	Blocks []Block
	// HelpCount is the per-set counter n of currently stored helping
	// blocks (paper §3.2: log2(w) bits of real hardware state).
	HelpCount int
	Role      SetRole
	// Sampled marks sets whose first-class hit rate feeds one of the
	// bank's EMA estimators.
	Sampled bool
}

// recount returns the true number of valid helping blocks; used to check
// the HelpCount invariant.
func (s *Set) recount() int {
	n := 0
	for i := range s.Blocks {
		if s.Blocks[i].Valid && s.Blocks[i].Class.Helping() {
			n++
		}
	}
	return n
}

// Config describes one L2 bank.
type Config struct {
	Sets, Ways int
	// Latency is the full (sequential tag+data) access latency; TagLatency
	// is the tag-only portion (paper Table 2: 5 and 2 cycles).
	Latency, TagLatency sim.Cycle
}

// Stats aggregates per-bank counters used by the experiment harness.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	HelpRefused uint64 // helping-block inserts refused by policy
}

// Bank is one NUCA bank: a tag/data array plus a port that serializes
// accesses (sequential-access banks service one operation at a time).
//
// Beside the blocks, the bank keeps one packed tag word per way (see
// tagWord) and the ways' LRU stamps, each in its own array indexed
// set*ways+way. Scans compare the words, so a 16-way scan reads 128
// bytes and touches a block only on a match. The words are kept in sync
// by the Bank methods that change a block (place, Invalidate, Reclass),
// the only places a block's line, validity or class changes; callers
// may change a block's Dirty bit through the pointer Lookup and Peek
// return, which no word holds.
type Bank struct {
	cfg  Config
	sets []Set
	tags []uint64
	// stamps holds each way's bank clock at its last touch; smaller is
	// older.
	stamps []uint64
	clock  uint64
	port   *sim.Resource
	// helping is the bank-wide helping-block count (the sum of the per-set
	// HelpCount counters), maintained incrementally so the observability
	// layer's per-interval HelpingBlocks sample is O(1) instead of a walk
	// over every set.
	helping int

	// Stats is exported for the harness; it has no behaviourial role.
	Stats Stats
}

// A tag word packs a valid block's line, a valid bit and its class's
// mask bit as line<<tagLineShift | tagValid | class mask; an invalid way's
// word is 0. Lines must fit in 64-tagLineShift bits.
const (
	tagLineShift = 8
	tagValid     = 1 << 7
)

// tagWord returns blk's packed tag word.
func tagWord(blk *Block) uint64 {
	if !blk.Valid {
		return 0
	}
	return uint64(blk.Line)<<tagLineShift | tagValid | uint64(blk.Class.Mask())
}

// NewBank builds a bank; Sets and Ways must be positive. The latencies
// are used as given (arch.Config.Validate refuses zero ones).
func NewBank(cfg Config) (*Bank, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %d sets x %d ways", cfg.Sets, cfg.Ways)
	}
	n := cfg.Sets * cfg.Ways
	b := &Bank{
		cfg: cfg, port: sim.NewResource(sim.Cycle(cfg.Latency)),
		sets: make([]Set, cfg.Sets), tags: make([]uint64, n), stamps: make([]uint64, n),
	}
	blocks := make([]Block, n)
	for i := range b.sets {
		b.sets[i].Blocks = blocks[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return b, nil
}

// Reset empties the bank and returns it to its state as NewBank built
// it: every block, tag word, LRU stamp, set counter and set role
// cleared, the LRU clock, the helping count and the statistics zeroed,
// and the port reset.
func (b *Bank) Reset() {
	for i := range b.sets {
		set := &b.sets[i]
		clear(set.Blocks)
		*set = Set{Blocks: set.Blocks}
	}
	clear(b.tags)
	clear(b.stamps)
	b.clock, b.helping, b.Stats = 0, 0, Stats{}
	b.port.Reset()
}

// Config returns the bank geometry.
func (b *Bank) Config() Config { return b.cfg }

// HelpingBlocks returns the number of helping blocks currently resident in
// the bank (the sum of the per-set n counters); the observability layer
// samples it into per-bank occupancy series every interval, so it is
// maintained as a counter rather than recounted (CheckInvariants verifies
// it against the full recount).
func (b *Bank) HelpingBlocks() int { return b.helping }

// Sets returns the number of sets.
func (b *Bank) Sets() int { return len(b.sets) }

// Ways returns the associativity.
func (b *Bank) Ways() int { return b.cfg.Ways }

// Set returns set idx for policies, sampling setup and tests.
func (b *Bank) Set(idx int) *Set { return &b.sets[idx] }

// Access claims the bank port for a full access arriving at cycle at and
// returns the completion cycle.
func (b *Bank) Access(at sim.Cycle) sim.Cycle {
	return b.port.Claim(at) + b.cfg.Latency
}

// TagProbe claims the bank port for a tag-only probe (miss detection)
// arriving at cycle at and returns its completion cycle.
func (b *Bank) TagProbe(at sim.Cycle) sim.Cycle {
	return b.port.ClaimFor(at, b.cfg.TagLatency) + b.cfg.TagLatency
}

// Query is a concrete tag-comparison rule: the line and the set of
// classes that may answer. The private bit takes part in the comparison
// exactly as the widened tags do in hardware, so each architecture
// supplies its own matching rule as a plain value compared inline.
type Query struct {
	Line    mem.Line
	Classes ClassMask
}

// LineQuery matches any block holding the line regardless of class.
func LineQuery(l mem.Line) Query {
	return Query{Line: l, Classes: AnyClass}
}

// ClassQuery matches the line only in the given classes.
func ClassQuery(l mem.Line, classes ...Class) Query {
	var m ClassMask
	for _, c := range classes {
		m |= c.Mask()
	}
	return Query{Line: l, Classes: m}
}

// ways returns the first way's index into tags and stamps for set idx,
// and set idx's tag words.
func (b *Bank) ways(idx int) (base int, tags []uint64) {
	base = idx * b.cfg.Ways
	return base, b.tags[base : base+b.cfg.Ways]
}

// find returns set idx's base (see ways) and the first way whose block
// satisfies q, or -1. A matching word equals the query's line and valid bit, differs from it
// only in the class bits, and has one of q's classes.
func (b *Bank) find(idx int, q Query) (base, way int) {
	base, tags := b.ways(idx)
	key := uint64(q.Line)<<tagLineShift | tagValid
	for i, w := range tags {
		if w^key < tagValid && ClassMask(w)&q.Classes != 0 {
			return base, i
		}
	}
	return base, -1
}

// Lookup searches set idx for a block satisfying q and, on a hit, updates
// its LRU position. It returns the block (nil on miss).
func (b *Bank) Lookup(idx int, q Query) *Block {
	b.Stats.Lookups++
	base, way := b.find(idx, q)
	if way < 0 {
		b.Stats.Misses++
		return nil
	}
	b.clock++
	b.stamps[base+way] = b.clock
	b.Stats.Hits++
	return &b.sets[idx].Blocks[way]
}

// Peek searches without touching LRU state or statistics.
func (b *Bank) Peek(idx int, q Query) *Block {
	if _, way := b.find(idx, q); way >= 0 {
		return &b.sets[idx].Blocks[way]
	}
	return nil
}

// Policy chooses replacement victims. It returns the way to evict for an
// incoming block of class incoming, or -1 to refuse the insertion (legal
// only for helping blocks: a reference set refuses all of them).
type Policy interface {
	PickVictim(b *Bank, setIdx int, incoming Class) int
}

// Evicted describes a block displaced by Insert.
type Evicted struct {
	Block Block
	// Valid is false when the insertion filled an empty way or was
	// refused.
	Valid bool
	// Refused is true when the policy rejected the insertion entirely.
	Refused bool
}

// Insert places a new block into set idx using pol to choose the victim.
// It keeps the per-set helping counter consistent and returns the evicted
// block, if any.
func (b *Bank) Insert(idx int, nb Block, pol Policy) Evicted {
	if !nb.Valid {
		panic("cache: inserting invalid block")
	}
	if uint64(nb.Line)>>(64-tagLineShift) != 0 {
		panic(fmt.Sprintf("cache: line %#x does not fit a tag word", nb.Line))
	}
	base, tags := b.ways(idx)
	// Prefer an empty way; no eviction needed.
	for i, w := range tags {
		if w == 0 {
			b.place(idx, base, i, nb)
			return Evicted{}
		}
	}
	way := pol.PickVictim(b, idx, nb.Class)
	if way < 0 {
		if !nb.Class.Helping() {
			panic("cache: policy refused a first-class block")
		}
		b.Stats.HelpRefused++
		return Evicted{Refused: true}
	}
	set := &b.sets[idx]
	old := set.Blocks[way]
	if old.Class.Helping() {
		set.HelpCount--
		b.helping--
	}
	b.place(idx, base, way, nb)
	return Evicted{Block: old, Valid: true}
}

// place writes nb into way of set idx, with its tag word and a fresh LRU
// stamp.
func (b *Bank) place(idx, base, way int, nb Block) {
	set := &b.sets[idx]
	b.clock++
	b.stamps[base+way] = b.clock
	set.Blocks[way] = nb
	b.tags[base+way] = tagWord(&nb)
	if nb.Class.Helping() {
		set.HelpCount++
		b.helping++
	}
}

// Invalidate removes the first block matching q from set idx and returns
// it (Valid=false result if absent).
func (b *Bank) Invalidate(idx int, q Query) (Block, bool) {
	base, way := b.find(idx, q)
	if way < 0 {
		return Block{}, false
	}
	set := &b.sets[idx]
	blk := &set.Blocks[way]
	old := *blk
	if blk.Class.Helping() {
		set.HelpCount--
		b.helping--
	}
	blk.Valid = false
	b.tags[base+way] = 0
	return old, true
}

// Reclass changes the class of a resident block in place, maintaining the
// helping counters and its tag word. It returns false if no block
// matches q.
func (b *Bank) Reclass(idx int, q Query, to Class, owner int) bool {
	base, way := b.find(idx, q)
	if way < 0 {
		return false
	}
	set := &b.sets[idx]
	blk := &set.Blocks[way]
	if blk.Class.Helping() {
		set.HelpCount--
		b.helping--
	}
	blk.Class = to
	blk.Owner = int8(owner)
	b.tags[base+way] = tagWord(blk)
	if to.Helping() {
		set.HelpCount++
		b.helping++
	}
	return true
}

// LRUWay returns the least-recently-used way among the valid blocks whose
// class is in mask (AnyClass = all valid ways), or -1 if none qualifies.
// An invalid way's word has no class bit, so it never qualifies.
func (b *Bank) LRUWay(idx int, mask ClassMask) int {
	base, tags := b.ways(idx)
	stamps := b.stamps[base : base+len(tags)]
	best, bestUse := -1, uint64(0)
	for i, w := range tags {
		if ClassMask(w)&mask == 0 {
			continue
		}
		if best == -1 || stamps[i] < bestUse {
			best, bestUse = i, stamps[i]
		}
	}
	return best
}

// CheckInvariants verifies internal consistency (tag words, helping
// counters, no duplicate first-class tags). Tests and debug builds call
// it; it returns a descriptive error on the first violation.
func (b *Bank) CheckInvariants() error {
	helping := 0
	for si := range b.sets {
		set := &b.sets[si]
		_, tags := b.ways(si)
		for i := range set.Blocks {
			if want := tagWord(&set.Blocks[i]); tags[i] != want {
				return fmt.Errorf("cache: set %d way %d tag word %#x, block gives %#x", si, i, tags[i], want)
			}
		}
		if got := set.recount(); got != set.HelpCount {
			return fmt.Errorf("cache: set %d helping counter %d, actual %d", si, set.HelpCount, got)
		}
		helping += set.HelpCount
		seen := map[mem.Line][]Class{}
		for i := range set.Blocks {
			blk := &set.Blocks[i]
			if !blk.Valid {
				continue
			}
			for _, c := range seen[blk.Line] {
				if c == blk.Class {
					return fmt.Errorf("cache: set %d holds duplicate %v copies of line %#x", si, c, blk.Line)
				}
			}
			seen[blk.Line] = append(seen[blk.Line], blk.Class)
		}
	}
	if helping != b.helping {
		return fmt.Errorf("cache: bank helping counter %d, actual %d", b.helping, helping)
	}
	return nil
}
