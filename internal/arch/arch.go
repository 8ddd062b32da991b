// Package arch assembles the seven evaluated L2 organizations on one
// common substrate (cores, split L1s, token-coherence directory, mesh
// NoC, DRAM): Shared S-NUCA, Private/Tiled, SP-NUCA (flat LRU, shadow
// tags, static partition), ESP-NUCA (flat or protected LRU), D-NUCA with
// idealized perfect search, Adaptive Selective Replication, and
// Cooperative Caching.
//
// Every architecture implements the System interface: the CPU model calls
// Access for each L1 miss and WriteBack for each dirty L1 eviction; the
// architecture resolves the transaction against its probe chain (paper
// Figure 2), moving tokens in the shared directory and accumulating the
// access-time decomposition of Figure 6.
package arch

import (
	"fmt"
	"sync/atomic"

	"espnuca/internal/cache"
	"espnuca/internal/coherence"
	"espnuca/internal/core"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// Level classifies where an access was satisfied, matching the Figure 6
// decomposition.
type Level int

// Decomposition levels, nearest first.
const (
	LocalL1  Level = iota // hit in the requesting core's L1
	RemoteL1              // satisfied by another core's L1 (intervention)
	LocalL2               // hit in an L2 bank on the requester's router
	RemoteL2              // hit in a remote private/tile bank
	SharedL2              // hit in a remote shared/home bank
	OffChip               // satisfied by DRAM
	NumLevels
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LocalL1:
		return "LocalL1"
	case RemoteL1:
		return "RemoteL1"
	case LocalL2:
		return "LocalL2"
	case RemoteL2:
		return "RemoteL2"
	case SharedL2:
		return "SharedL2"
	case OffChip:
		return "OffChip"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Result reports how an L1 miss was resolved.
type Result struct {
	Done  sim.Cycle
	Level Level
}

// System is one L2 organization bound to a substrate.
type System interface {
	// Name returns the architecture's display name.
	Name() string
	// Access resolves an L1 miss by core for line at cycle at; write
	// requests collect every token (GETX).
	Access(at sim.Cycle, core int, line mem.Line, write bool) Result
	// WriteBack routes an L1 eviction (clean or dirty). Victim-allocating
	// organizations install the block in L2; others update or drop it.
	WriteBack(at sim.Cycle, core int, line mem.Line, dirty bool)
	// Sub returns the underlying substrate (stats, invariants).
	Sub() *Substrate
}

// Config describes the simulated system. DefaultConfig is the paper's
// Table 2; ScaledConfig is a capacity-scaled variant that keeps every
// ratio but makes multi-run experiments tractable.
type Config struct {
	Cores       int
	Banks       int
	SetsPerBank int
	Ways        int
	BlockBytes  int
	BankLatency sim.Cycle
	TagLatency  sim.Cycle

	L1   coherence.L1Config
	NoC  noc.Config
	DRAM mem.DRAMConfig

	// Sampler configures ESP-NUCA's protected-LRU controller.
	Sampler core.SamplerConfig

	// StaticPrivateWays configures the static-partition SP-NUCA variant
	// of Figure 4 (paper: 12 private + 4 shared).
	StaticPrivateWays int

	// CCProbability is the cooperation probability for Cooperative
	// Caching (paper evaluates 0, 0.3, 0.7, 1.0).
	CCProbability float64

	// QoS configures the per-priority degradation policy of the
	// "esp-nuca-qos" architecture (paper S5.2's future-work sketch).
	QoS core.QoS

	// Seed perturbs stochastic mechanisms inside architectures (ASR and
	// CC randomization), independent of the workload seed.
	Seed uint64

	// CheckTokens enables per-transaction token-conservation checks.
	CheckTokens bool
}

// DefaultConfig returns the paper's Table 2 system: 8 cores, 8 MB L2 in
// 32 banks (16-way, 256 sets, 64 B blocks, 5-cycle banks), 32 KB L1s,
// 4x2 mesh with 5-cycle hops.
func DefaultConfig() Config {
	return Config{
		Cores: 8, Banks: 32, SetsPerBank: 256, Ways: 16, BlockBytes: 64,
		BankLatency: 5, TagLatency: 2,
		L1:                coherence.DefaultL1Config(),
		NoC:               noc.DefaultConfig(),
		DRAM:              mem.DefaultDRAMConfig(),
		Sampler:           core.DefaultSamplerConfig(),
		QoS:               core.DefaultQoS(),
		StaticPrivateWays: 12,
		CCProbability:     0.7,
	}
}

// ScaledConfig returns a capacity-scaled system preserving Table 2's
// organization and (approximately) its L1:L2 ratio: a 1 MB L2 in the same
// 32 banks and 8 KB split L1s. The experiment harness uses it so that the
// synthetic workloads exercise the same capacity regimes as the paper's
// full-size system within short runs.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.SetsPerBank = 32 // 32 banks x 32 sets x 16 ways x 64B = 1 MB
	c.L1 = coherence.L1Config{Bytes: 8 * 1024, Ways: 4, BlockBytes: 64, Latency: 3, TagLatency: 1}
	return c
}

// L2Lines returns the L2 capacity in cache lines.
func (c Config) L2Lines() int { return c.Banks * c.SetsPerBank * c.Ways }

// L1ILines returns the instruction-L1 capacity in lines.
func (c Config) L1ILines() int { return c.L1.Bytes / c.L1.BlockBytes }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores != 8 {
		return fmt.Errorf("arch: this substrate models the paper's 8-core CMP, got %d cores", c.Cores)
	}
	if c.Banks%c.Cores != 0 {
		return fmt.Errorf("arch: %d banks not divisible across %d cores", c.Banks, c.Cores)
	}
	if c.StaticPrivateWays < 0 || c.StaticPrivateWays > c.Ways {
		return fmt.Errorf("arch: static partition %d exceeds %d ways", c.StaticPrivateWays, c.Ways)
	}
	if c.CCProbability < 0 || c.CCProbability > 1 {
		return fmt.Errorf("arch: cooperation probability %g outside [0,1]", c.CCProbability)
	}
	return nil
}

// l2loc records one L2 residency of a line.
type l2loc struct {
	bank  int
	class cache.Class
	set   int
}

// Substrate is the hardware common to every architecture.
type Substrate struct {
	Cfg  Config
	Mesh *noc.Mesh
	DRAM *mem.DRAM
	Dir  *coherence.Directory
	L1   *coherence.L1s
	Map  core.Mapping
	Bank []*cache.Bank
	RNG  *sim.RNG

	// where and status are partitioned by home-bank bits (line & Banks-1):
	// barrier transactions whose footprints claim disjoint Banks bits touch
	// disjoint partitions, so parallel conflict groups never share a
	// backing array (see footprint.go).
	where residency
	// scratch is collectForWrite's reusable residency snapshot, one per
	// core: all of a core's transactions land in the same conflict group
	// (every footprint includes its requester-core bit), so the per-core
	// buffer is never shared across workers.
	scratch [][]l2loc

	// sharedStatus tracks the SP/ESP private bit: present = line has been
	// on chip; value true = shared status (two or more accessor cores).
	status partLineMap[lineStatus]

	// hintValid/hintPresent carry the sharded runner's per-core
	// requester-presence override for Upgrade; see SetPresenceHint.
	hintValid   []bool
	hintPresent []bool

	// concurrent gates record/bump onto atomic adds during the sharded
	// engine's parallel barrier phases; the sums are order-free, so the
	// totals stay deterministic. Serial paths never pay the atomic cost.
	concurrent bool

	// OnLine, when non-nil, observes every line whose substrate residency
	// or status bookkeeping is consulted or mutated. Test instrumentation
	// for the footprint oracle; nil in production runs.
	OnLine func(l mem.Line)

	// fpOK reports that the geometry fits the footprint bitmask model
	// (<=64 banks, <=64 links, <=32 cores, <=32 channels); fpLinks caches
	// Mesh.PathLinkMask for every node pair, [from*nodes+to]. Both are
	// set up by fpInit (footprint.go).
	fpOK    bool
	fpLinks []uint64

	// Counts and Latency accumulate the Figure 6 decomposition; index by
	// Level. Latency is in cycles summed over accesses.
	Counts  [NumLevels]uint64
	Latency [NumLevels]uint64
}

type lineStatus struct {
	shared bool
	owner  int // first accessor while private
}

// NewSubstrate builds the common hardware for a config.
func NewSubstrate(cfg Config) (*Substrate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := noc.New(cfg.NoC)
	if err != nil {
		return nil, err
	}
	dir := coherence.NewDirectoryParts(cfg.Banks)
	dir.Check = cfg.CheckTokens
	l1, err := coherence.NewL1s(cfg.Cores, cfg.L1, dir)
	if err != nil {
		return nil, err
	}
	mapping, err := core.NewMapping(cfg.Banks, cfg.Cores, cfg.SetsPerBank)
	if err != nil {
		return nil, err
	}
	s := &Substrate{
		Cfg:         cfg,
		Mesh:        mesh,
		DRAM:        mem.NewDRAM(cfg.DRAM),
		Dir:         dir,
		L1:          l1,
		Map:         mapping,
		RNG:         sim.NewRNG(cfg.Seed ^ 0xA11CE),
		where:       newResidency(cfg.Banks, 1<<16),
		status:      newPartLineMap[lineStatus](cfg.Banks, 1<<16),
		scratch:     make([][]l2loc, cfg.Cores),
		hintValid:   make([]bool, cfg.Cores),
		hintPresent: make([]bool, cfg.Cores),
	}
	for i := 0; i < cfg.Banks; i++ {
		b, err := cache.NewBank(cache.Config{
			Sets: cfg.SetsPerBank, Ways: cfg.Ways,
			Latency: cfg.BankLatency, TagLatency: cfg.TagLatency,
		})
		if err != nil {
			return nil, err
		}
		s.Bank = append(s.Bank, b)
	}
	s.fpInit()
	return s, nil
}

// SetFunctional switches the whole substrate between timed and
// functional mode. In functional mode every timing sink — mesh links,
// DRAM channels, L2 bank ports, L1 ports — completes instantly without
// claiming its resource, while all state machinery (tag arrays, LRU and
// class metadata, directory tokens, private-bit status, the adaptive
// mechanisms' counters and RNG draws) follows exactly the detailed-mode
// code paths. The sampled-run fast-forward runs the memory system in
// this mode to warm a measurement window.
func (s *Substrate) SetFunctional(on bool) {
	s.Mesh.SetFunctional(on)
	s.DRAM.SetFunctional(on)
	s.L1.SetFunctional(on)
	for _, b := range s.Bank {
		b.SetFunctional(on)
	}
}

// Reseed re-derives the substrate RNG exactly as NewSubstrate does for
// the given seed and records it in Cfg. RunOn uses it to align a
// caller-built system with the run seed; reseeding a freshly built
// system with its own seed is a no-op. The RNG is reset in place so
// components holding the pointer see the new state.
func (s *Substrate) Reseed(seed uint64) {
	s.Cfg.Seed = seed
	*s.RNG = *sim.NewRNG(seed ^ 0xA11CE)
}

// NodeOfBank returns the router to which bank b attaches (banks attach in
// groups of Banks/Nodes per router, groups aligned with cores).
func (s *Substrate) NodeOfBank(b int) noc.NodeID {
	perNode := s.Cfg.Banks / s.Mesh.Nodes()
	return noc.NodeID(b / perNode)
}

// NodeOfCore returns core c's router.
func (s *Substrate) NodeOfCore(c int) noc.NodeID { return noc.NodeID(c) }

// SetConcurrent switches the substrate's shared counters (the Figure 6
// decomposition, architecture-specific event counters, mesh traffic, DRAM
// access counts) between plain and atomic increments. The sharded runner
// sets it around parallel barrier servicing; serial paths never pay the
// atomic cost. Counter totals are order-free integer sums, so parallel
// accumulation is deterministic.
func (s *Substrate) SetConcurrent(on bool) {
	s.concurrent = on
	s.Mesh.SetConcurrent(on)
	s.DRAM.SetConcurrent(on)
}

// bump adds one to a shared event counter, atomically during concurrent
// barrier phases. Architecture counters (migrations, replicas, victims...)
// route through it.
func (s *Substrate) bump(p *uint64) {
	if s.concurrent {
		atomic.AddUint64(p, 1)
	} else {
		*p++
	}
}

// record accumulates an access into the decomposition.
func (s *Substrate) record(level Level, at, done sim.Cycle) {
	if s.concurrent {
		atomic.AddUint64(&s.Counts[level], 1)
		atomic.AddUint64(&s.Latency[level], uint64(done-at))
		return
	}
	s.Counts[level]++
	s.Latency[level] += uint64(done - at)
}

// RecordL1Hit lets the CPU model account local L1 hits in the same
// decomposition.
func (s *Substrate) RecordL1Hit(lat sim.Cycle) {
	s.Counts[LocalL1]++
	s.Latency[LocalL1] += uint64(lat)
}

// RecordL1Hits accounts n local L1 hits at once. The sharded runner's
// cores buffer their hit counts core-locally during the parallel phase
// and flush them here at every window barrier; because the decomposition
// is a pair of order-independent sums, the bulk flush yields the same
// totals the serial engine's per-hit calls would.
func (s *Substrate) RecordL1Hits(n uint64, lat sim.Cycle) {
	s.Counts[LocalL1] += n
	s.Latency[LocalL1] += n * uint64(lat)
}

// SetPresenceHint overrides — for core's next Access only — what Upgrade
// considers the requester's L1 presence for the accessed line. The
// sharded runner fills a missing line into the requester's L1 at issue
// time (the parallel phase) but routes the access itself through the
// barrier phase; by then L1.Has would report the post-fill state,
// misclassifying every plain miss as an upgrade. The hint restores the
// at-issue truth. ClearPresenceHint removes it; the serial engine never
// sets one. The hint is per core so that the parallel barrier's workers
// — which only ever service one core's transactions concurrently with
// other cores' (every footprint includes its requester-core bit) — never
// share a hint slot.
func (s *Substrate) SetPresenceHint(core int, present bool) {
	s.hintValid[core] = true
	s.hintPresent[core] = present
}

// ClearPresenceHint removes the presence hint set by SetPresenceHint.
func (s *Substrate) ClearPresenceHint(core int) { s.hintValid[core] = false }

// --- L2 residency management ---

// onLine notifies the oracle hook, if installed.
func (s *Substrate) onLine(l mem.Line) {
	if s.OnLine != nil {
		s.OnLine(l)
	}
}

// l2Has returns the copies of line currently in the L2. The slice is the
// live residency entry: it is valid only until the next l2Insert,
// l2Invalidate or removeWhere, which may hand it to another line, so a
// caller that mutates residency while walking it must walk a copy.
func (s *Substrate) l2Has(line mem.Line) []l2loc {
	s.onLine(line)
	locs, _ := s.where.get(line)
	return locs
}

// l2Find returns the residency entry for line in bank, if any.
func (s *Substrate) l2Find(line mem.Line, bank int) (l2loc, bool) {
	for _, loc := range s.l2Has(line) {
		if loc.bank == bank {
			return loc, true
		}
	}
	return l2loc{}, false
}

// l2Insert places blk into (bank, set) under pol and returns the eviction
// for the caller to route. Residency bookkeeping for both the inserted and
// the evicted block is handled here; token/dirty consequences of the
// eviction are the caller's job via dropEvicted or an architecture-
// specific spill.
func (s *Substrate) l2Insert(bank, set int, blk cache.Block, pol cache.Policy) cache.Evicted {
	s.onLine(blk.Line)
	ev := s.Bank[bank].Insert(set, blk, pol)
	if !ev.Refused {
		s.where.add(blk.Line, l2loc{bank: bank, class: blk.Class, set: set})
	}
	if ev.Valid {
		s.removeWhere(ev.Block.Line, bank)
	}
	return ev
}

// l2Invalidate removes line from bank and returns the dropped block.
func (s *Substrate) l2Invalidate(line mem.Line, bank, set int) (cache.Block, bool) {
	blk, ok := s.Bank[bank].Invalidate(set, cache.LineQuery(line))
	if ok {
		s.removeWhere(line, bank)
	}
	return blk, ok
}

func (s *Substrate) removeWhere(line mem.Line, bank int) {
	s.onLine(line)
	if s.where.remove(line, bank) {
		s.maybeForgetStatus(line)
	}
}

// reclassWhere updates the cached class of a residency entry after a
// Reclass on the bank.
func (s *Substrate) reclassWhere(line mem.Line, bank int, to cache.Class) {
	s.onLine(line)
	locs, _ := s.where.get(line)
	for i := range locs {
		if locs[i].bank == bank {
			locs[i].class = to
		}
	}
}

// dropEvicted applies the default fate of an evicted L2 block: if it was
// the last on-chip L2 copy, its tokens return to memory and dirty data is
// written back to DRAM (posted).
func (s *Substrate) dropEvicted(at sim.Cycle, ev cache.Evicted, fromBank int) {
	if !ev.Valid {
		return
	}
	line := ev.Block.Line
	if len(s.l2Has(line)) > 0 {
		return // other L2 copies remain; the pool keeps its tokens
	}
	st := s.Dir.State(line)
	dirty := ev.Block.Dirty || (st.Owner == coherence.HolderL2 && st.Dirty)
	if s.Dir.L2Evict(line) || dirty {
		// Posted write-back: bank -> memory controller.
		mcNode := s.Mesh.MemRouter(s.DRAM.ChannelOf(line))
		t := s.Mesh.Send(at, s.NodeOfBank(fromBank), mcNode, noc.Data, s.Cfg.BlockBytes)
		s.DRAM.Write(t, line)
	}
	s.maybeForgetStatus(line)
}

// --- SP/ESP private-bit status ---

// statusOf returns (shared?, firstOwner) for a line, registering core c
// as the first accessor on first touch and upgrading to shared when a
// different core touches a private line (paper §2.1).
func (s *Substrate) statusOf(line mem.Line, c int) (shared bool, owner int) {
	s.onLine(line)
	st, ok := s.status.get(line)
	if !ok {
		s.status.set(line, lineStatus{shared: false, owner: c})
		return false, c
	}
	if !st.shared && st.owner != c {
		st.shared = true
		s.status.set(line, st)
	}
	return st.shared, st.owner
}

// peekStatus returns the status without mutating it.
func (s *Substrate) peekStatus(line mem.Line) (shared bool, owner int, known bool) {
	s.onLine(line)
	st, ok := s.status.get(line)
	return st.shared, st.owner, ok
}

// markShared forces a line's status to shared (victim touched by a
// non-owner, migration, etc.).
func (s *Substrate) markShared(line mem.Line) {
	s.onLine(line)
	st, _ := s.status.get(line)
	st.shared = true
	s.status.set(line, st)
}

// maybeForgetStatus clears the private bit when the line has left the
// chip entirely: the status "remains with the block while it stays in the
// chip" (paper §2.1).
func (s *Substrate) maybeForgetStatus(line mem.Line) {
	s.onLine(line)
	if len(s.l2Has(line)) > 0 {
		return
	}
	if st := s.Dir.Peek(line); st != nil && st.Sharers() != 0 {
		return
	}
	s.status.del(line)
	// The line has fully left the chip; if its token state has decayed
	// back to all-at-memory the directory entry is redundant (a later
	// State call re-materializes identical contents), so drop it to bound
	// the table's live-entry count.
	s.Dir.Forget(line)
}

// --- Common transaction steps ---

// memFetch issues a read to DRAM for a requester at reqNode starting at
// cycle at (the cycle the request leaves that node) and returns when the
// data arrives back at reqNode.
func (s *Substrate) memFetch(at sim.Cycle, reqNode noc.NodeID, line mem.Line) sim.Cycle {
	mcNode := s.Mesh.MemRouter(s.DRAM.ChannelOf(line))
	t := s.Mesh.Send(at, reqNode, mcNode, noc.Control, 0)
	t = s.DRAM.Read(t, line)
	return s.Mesh.Send(t, mcNode, reqNode, noc.Data, s.Cfg.BlockBytes)
}

// l1Intervention forwards a request from the serialization point at
// viaNode to the L1 of core holder and returns when data reaches core
// reqCore.
func (s *Substrate) l1Intervention(at sim.Cycle, viaNode noc.NodeID, holder, reqCore int) sim.Cycle {
	t := s.Mesh.Send(at, viaNode, s.NodeOfCore(holder), noc.Control, 0)
	t = s.L1.Access(t, holder, false)
	return s.Mesh.Send(t, s.NodeOfCore(holder), s.NodeOfCore(reqCore), noc.Data, s.Cfg.BlockBytes)
}

// Upgrade handles a write by a core whose L1 already holds the line with
// insufficient tokens: the data never moves, only tokens do. Memory cedes
// its tokens via a control round trip; other holders are invalidated as
// in any GETX. It reports false when the requester's L1 does not hold the
// line (a real miss).
func (s *Substrate) Upgrade(at sim.Cycle, c int, line mem.Line) (Result, bool) {
	held := s.L1.Has(c, line)
	if s.hintValid[c] {
		held = s.hintPresent[c]
	}
	if !held {
		return Result{}, false
	}
	st := s.Dir.State(line)
	t := at
	if st.MemTokens > 0 {
		mc := s.Mesh.MemRouter(s.DRAM.ChannelOf(line))
		tt := s.Mesh.Send(at, s.NodeOfCore(c), mc, noc.Control, 0)
		tt = s.Mesh.Send(tt, mc, s.NodeOfCore(c), noc.Control, 0)
		t = tt
	}
	if ack := s.collectForWrite(at, s.NodeOfCore(c), c, line); ack > t {
		t = ack
	}
	s.record(LocalL1, at, t)
	return Result{Done: t, Level: LocalL1}, true
}

// collectForWrite performs the GETX side effects: invalidates every other
// L1 copy (control to each sharer, ack to the requester) and every L2
// copy, grants all tokens to the writer, and returns the cycle the last
// acknowledgement reaches the requester. viaNode is the serialization
// point the invalidations fan out from.
func (s *Substrate) collectForWrite(at sim.Cycle, viaNode noc.NodeID, reqCore int, line mem.Line) sim.Cycle {
	st := s.Dir.State(line)
	done := at
	mask := st.Sharers()
	for c := 0; c < s.Cfg.Cores; c++ {
		if c == reqCore || mask&(1<<uint(c)) == 0 {
			continue
		}
		t := s.Mesh.Send(at, viaNode, s.NodeOfCore(c), noc.Control, 0)
		t = s.L1.Access(t, c, false)
		t = s.Mesh.Send(t, s.NodeOfCore(c), s.NodeOfCore(reqCore), noc.Control, 0)
		if t > done {
			done = t
		}
		s.L1.Invalidate(c, line)
	}
	// Invalidate every L2 copy (tokens drain to the writer). l2Invalidate
	// mutates s.where[line], so iterate over a reusable snapshot instead of
	// the live slice (the per-core scratch buffer avoids an allocation per
	// write; collectForWrite never reenters itself, and a core's
	// transactions never run concurrently with each other).
	s.scratch[reqCore] = append(s.scratch[reqCore][:0], s.l2Has(line)...)
	for _, loc := range s.scratch[reqCore] {
		t := s.Mesh.Send(at, viaNode, s.NodeOfBank(loc.bank), noc.Control, 0)
		t = s.Bank[loc.bank].TagProbe(t)
		t = s.Mesh.Send(t, s.NodeOfBank(loc.bank), s.NodeOfCore(reqCore), noc.Control, 0)
		if t > done {
			done = t
		}
		s.l2Invalidate(line, loc.bank, loc.set)
	}
	s.Dir.GrantWriteL1(line, reqCore)
	return done
}

// CheckInvariants verifies bank counters, residency bookkeeping and token
// conservation. Tests call it after driving traffic.
func (s *Substrate) CheckInvariants() error {
	for i, b := range s.Bank {
		if err := b.CheckInvariants(); err != nil {
			return fmt.Errorf("bank %d: %w", i, err)
		}
	}
	// Every 'where' entry must exist in its bank, and vice versa.
	if err := s.where.forEach(func(line mem.Line, locs []l2loc) error {
		for _, loc := range locs {
			if s.Bank[loc.bank].Peek(loc.set, cache.LineQuery(line)) == nil {
				return fmt.Errorf("arch: residency of line %#x in bank %d not present in array", line, loc.bank)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for bi, b := range s.Bank {
		for si := 0; si < b.Sets(); si++ {
			set := b.Set(si)
			for wi := range set.Blocks {
				blk := &set.Blocks[wi]
				if !blk.Valid {
					continue
				}
				if _, ok := s.l2Find(blk.Line, bi); !ok {
					return fmt.Errorf("arch: bank %d holds line %#x without residency entry", bi, blk.Line)
				}
			}
		}
	}
	return s.Dir.VerifyAll()
}

// AvgAccessTime returns the mean cycles per access and the per-level
// contribution to it (Figure 6's stacked decomposition).
func (s *Substrate) AvgAccessTime() (total float64, contrib [NumLevels]float64) {
	var n, lat uint64
	for l := Level(0); l < NumLevels; l++ {
		n += s.Counts[l]
		lat += s.Latency[l]
	}
	if n == 0 {
		return 0, contrib
	}
	for l := Level(0); l < NumLevels; l++ {
		contrib[l] = float64(s.Latency[l]) / float64(n)
	}
	return float64(lat) / float64(n), contrib
}
