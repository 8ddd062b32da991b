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
type Bank struct {
	cfg   Config
	sets  []Set
	clock uint64
	port  *sim.Resource
	// helping is the bank-wide helping-block count (the sum of the per-set
	// HelpCount counters), maintained incrementally so the observability
	// layer's per-interval HelpingBlocks sample is O(1) instead of a walk
	// over every set.
	helping int

	// Stats is exported for the harness; it has no behaviourial role.
	Stats Stats
}

// NewBank builds a bank; Sets and Ways must be positive. The latencies
// are used as given (arch.Config.Validate refuses zero ones).
func NewBank(cfg Config) (*Bank, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %d sets x %d ways", cfg.Sets, cfg.Ways)
	}
	b := &Bank{cfg: cfg, port: sim.NewResource(sim.Cycle(cfg.Latency))}
	b.sets = make([]Set, cfg.Sets)
	blocks := make([]Block, cfg.Sets*cfg.Ways)
	for i := range b.sets {
		b.sets[i].Blocks = blocks[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return b, nil
}

// Reset empties the bank and returns it to its state as NewBank built
// it: every block, set counter and set role cleared, the LRU clock, the
// helping count and the statistics zeroed, and the port reset.
func (b *Bank) Reset() {
	for i := range b.sets {
		set := &b.sets[i]
		clear(set.Blocks)
		*set = Set{Blocks: set.Blocks}
	}
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

// Query is a concrete tag-comparison rule: the line, the set of classes
// that may answer, and (optionally) the owning core. The private bit and
// owner take part in the comparison exactly as the widened tags do in
// hardware, so each architecture supplies its own matching rule — but as a
// plain value compared inline, not a predicate closure: the previous
// func(*Block) bool API heap-allocated a closure per tag lookup, which was
// 18% of all objects allocated on the simulator's access path.
type Query struct {
	Line    mem.Line
	Classes ClassMask
	// Owner restricts the match to blocks owned by one core; AnyOwner
	// (the zero-value constructors' default) disables the comparison.
	Owner int
}

// AnyOwner disables Query's owner comparison. It is deliberately outside
// the valid owner range (cores are small non-negative ints, -1 marks
// shared blocks).
const AnyOwner = -1 << 30

// LineQuery matches any block holding the line regardless of class.
func LineQuery(l mem.Line) Query {
	return Query{Line: l, Classes: AnyClass, Owner: AnyOwner}
}

// ClassQuery matches the line only in the given classes.
func ClassQuery(l mem.Line, classes ...Class) Query {
	var m ClassMask
	for _, c := range classes {
		m |= c.Mask()
	}
	return Query{Line: l, Classes: m, Owner: AnyOwner}
}

// matches reports whether a valid block satisfies the query.
func (q Query) matches(blk *Block) bool {
	return blk.Line == q.Line &&
		q.Classes&blk.Class.Mask() != 0 &&
		(q.Owner == AnyOwner || q.Owner == blk.Owner)
}

// Lookup searches set idx for a block satisfying q and, on a hit, updates
// its LRU position. It returns the block (nil on miss).
func (b *Bank) Lookup(idx int, q Query) *Block {
	b.Stats.Lookups++
	set := &b.sets[idx]
	for i := range set.Blocks {
		blk := &set.Blocks[i]
		if blk.Valid && q.matches(blk) {
			b.clock++
			blk.lastUse = b.clock
			b.Stats.Hits++
			return blk
		}
	}
	b.Stats.Misses++
	return nil
}

// Peek searches without touching LRU state or statistics.
func (b *Bank) Peek(idx int, q Query) *Block {
	set := &b.sets[idx]
	for i := range set.Blocks {
		blk := &set.Blocks[i]
		if blk.Valid && q.matches(blk) {
			return blk
		}
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
	set := &b.sets[idx]
	// Prefer an empty way; no eviction needed.
	for i := range set.Blocks {
		if !set.Blocks[i].Valid {
			b.place(set, i, nb)
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
	old := set.Blocks[way]
	if old.Class.Helping() {
		set.HelpCount--
		b.helping--
	}
	b.place(set, way, nb)
	return Evicted{Block: old, Valid: true}
}

func (b *Bank) place(set *Set, way int, nb Block) {
	b.clock++
	nb.lastUse = b.clock
	set.Blocks[way] = nb
	if nb.Class.Helping() {
		set.HelpCount++
		b.helping++
	}
}

// Invalidate removes the first block matching q from set idx and returns
// it (Valid=false result if absent).
func (b *Bank) Invalidate(idx int, q Query) (Block, bool) {
	set := &b.sets[idx]
	for i := range set.Blocks {
		blk := &set.Blocks[i]
		if blk.Valid && q.matches(blk) {
			old := *blk
			if blk.Class.Helping() {
				set.HelpCount--
				b.helping--
			}
			blk.Valid = false
			return old, true
		}
	}
	return Block{}, false
}

// Reclass changes the class of a resident block in place, maintaining the
// helping counters. It returns false if no block matches q.
func (b *Bank) Reclass(idx int, q Query, to Class, owner int) bool {
	set := &b.sets[idx]
	for i := range set.Blocks {
		blk := &set.Blocks[i]
		if blk.Valid && q.matches(blk) {
			if blk.Class.Helping() {
				set.HelpCount--
				b.helping--
			}
			blk.Class = to
			blk.Owner = owner
			if to.Helping() {
				set.HelpCount++
				b.helping++
			}
			return true
		}
	}
	return false
}

// LRUWay returns the least-recently-used way among the valid blocks whose
// class is in mask (AnyClass = all valid ways), or -1 if none qualifies.
func (b *Bank) LRUWay(idx int, mask ClassMask) int {
	set := &b.sets[idx]
	best, bestUse := -1, uint64(0)
	for i := range set.Blocks {
		blk := &set.Blocks[i]
		if !blk.Valid || mask&blk.Class.Mask() == 0 {
			continue
		}
		if best == -1 || blk.lastUse < bestUse {
			best, bestUse = i, blk.lastUse
		}
	}
	return best
}

// CheckInvariants verifies internal consistency (helping counters, no
// duplicate first-class tags). Tests and debug builds call it; it returns
// a descriptive error on the first violation.
func (b *Bank) CheckInvariants() error {
	helping := 0
	for si := range b.sets {
		set := &b.sets[si]
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
