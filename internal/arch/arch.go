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
	"reflect"

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

	// Seed perturbs stochastic mechanisms inside architectures (ASR and
	// CC randomization), independent of the workload seed.
	Seed uint64

	// CheckTokens enables per-transaction token-conservation checks.
	CheckTokens bool
}

// DefaultConfig returns the paper's Table 2 system: 8 cores, 8 MB L2 in
// 32 banks (16-way, 256 sets, 64 B blocks, 5-cycle banks), 32 KB L1s,
// 4x2 mesh with 5-cycle hops. It and the component constructors it calls
// are the only place these numbers are written. The 5-cycle sequential
// bank and 2-cycle tag are the paper's own CACTI 5.0 (45 nm) output for
// this bank, taken as given.
func DefaultConfig() Config {
	return Config{
		Cores: 8, Banks: 32, SetsPerBank: 256, Ways: 16, BlockBytes: 64,
		BankLatency: 5, TagLatency: 2,
		L1:                coherence.DefaultL1Config(),
		NoC:               noc.DefaultConfig(),
		DRAM:              mem.DefaultDRAMConfig(),
		Sampler:           core.DefaultSamplerConfig(),
		StaticPrivateWays: 12,
		CCProbability:     0.7,
	}
}

// ScaledConfig returns a capacity-scaled system preserving Table 2's
// organization and (approximately) its L1:L2 ratio: 1/8 of the L2 sets
// (a 1 MB L2 in the same 32 banks) and 1/4 of the L1 bytes (8 KB split
// L1s). Every latency, associativity and block size is the full
// machine's. The experiment harness uses it so that the synthetic
// workloads exercise the same capacity regimes as the paper's full-size
// system within short runs.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.SetsPerBank /= 8
	c.L1.Bytes /= 4
	return c
}

// SameMachine reports whether c and d describe the same hardware: they
// may differ only in Seed, CCProbability and CheckTokens, which a run
// sets and Substrate.Reset takes.
func (c Config) SameMachine(d Config) bool {
	return reflect.DeepEqual(c.hardware(), d.hardware())
}

// hardware returns c without its per-run fields.
func (c Config) hardware() Config {
	c.Seed, c.CCProbability, c.CheckTokens = 0, 0, false
	return c
}

// L2Lines returns the L2 capacity in cache lines.
func (c Config) L2Lines() int { return c.Banks * c.SetsPerBank * c.Ways }

// L1ILines returns the instruction-L1 capacity in lines.
func (c Config) L1ILines() int { return c.L1.Bytes / c.L1.BlockBytes }

// Validate reports configuration errors. It is the one check of the
// machine's parameters: the component constructors take every latency,
// count and period as given, so a zero one is refused here.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"banks", int64(c.Banks)},
		{"sets per bank", int64(c.SetsPerBank)},
		{"ways", int64(c.Ways)},
		{"block bytes", int64(c.BlockBytes)},
		{"bank latency", int64(c.BankLatency)},
		{"bank tag latency", int64(c.TagLatency)},
		{"L1 bytes", int64(c.L1.Bytes)},
		{"L1 ways", int64(c.L1.Ways)},
		{"L1 block bytes", int64(c.L1.BlockBytes)},
		{"L1 latency", int64(c.L1.Latency)},
		{"L1 tag latency", int64(c.L1.TagLatency)},
		{"mesh columns", int64(c.NoC.Cols)},
		{"mesh rows", int64(c.NoC.Rows)},
		{"hop latency", int64(c.NoC.HopLatency)},
		{"link bytes", int64(c.NoC.LinkBytes)},
		{"memory routers", int64(len(c.NoC.MemRouters))},
		{"DRAM latency", int64(c.DRAM.Latency)},
		{"DRAM interval", int64(c.DRAM.Interval)},
		{"DRAM channels", int64(c.DRAM.Channels)},
		{"sampler period", int64(c.Sampler.Period)},
		{"sampler EMA width", int64(c.Sampler.B)},
		{"sampler EMA shift", int64(c.Sampler.A)},
		{"conventional sampled sets", int64(c.Sampler.ConventionalSets)},
		{"reference sampled sets", int64(c.Sampler.ReferenceSets)},
		{"explorer sampled sets", int64(c.Sampler.ExplorerSets)},
	} {
		if f.v <= 0 {
			return fmt.Errorf("arch: %s must be positive, got %d", f.name, f.v)
		}
	}
	if c.Sampler.A > c.Sampler.B {
		return fmt.Errorf("arch: sampler EMA shift %d exceeds its %d-bit width", c.Sampler.A, c.Sampler.B)
	}
	if c.Cores != coherence.TokensPerLine {
		return fmt.Errorf("arch: this substrate models the paper's %d-core CMP, got %d cores", coherence.TokensPerLine, c.Cores)
	}
	if routers := c.NoC.Cols * c.NoC.Rows; routers != c.Cores {
		return fmt.Errorf("arch: %dx%d mesh has %d routers, want one per core (%d)", c.NoC.Cols, c.NoC.Rows, routers, c.Cores)
	}
	if c.Banks%c.Cores != 0 {
		return fmt.Errorf("arch: %d banks not divisible across %d cores", c.Banks, c.Cores)
	}
	if c.Banks > maxBanks {
		return fmt.Errorf("arch: %d banks exceed the %d a line record can address", c.Banks, maxBanks)
	}
	if c.SetsPerBank > maxSetsPerBank {
		return fmt.Errorf("arch: %d sets per bank exceed the %d a line record can address", c.SetsPerBank, maxSetsPerBank)
	}
	if c.StaticPrivateWays < 0 || c.StaticPrivateWays > c.Ways {
		return fmt.Errorf("arch: static partition %d exceeds %d ways", c.StaticPrivateWays, c.Ways)
	}
	if !(c.CCProbability >= 0 && c.CCProbability <= 1) {
		return fmt.Errorf("arch: cooperation probability %g outside [0,1]", c.CCProbability)
	}
	return nil
}

// maxCopies bounds a line's L2 copies, at most one per bank. Both the
// private and the shared mapping take a line's bank within a core's group
// from the line's low bits, so a line has at most one copy per core's
// private bank group; D-NUCA's copies stay in the line's mesh column, 8
// banks in the shipped configurations. The substrate is the paper's
// 8-core CMP, as wide as the coherence tokens; addCopy panics past this.
const maxCopies = coherence.TokensPerLine

// maxBanks and maxSetsPerBank are the limits of l2loc's compact fields.
const (
	maxBanks       = 1 << 8
	maxSetsPerBank = 1 << 16
)

// l2loc records one L2 copy of a line.
type l2loc struct {
	bank  uint8
	class cache.Class
	set   uint16
}

// lineRec is what the substrate tracks per line: its L2 copies, the
// SP/ESP private bit and the coherence token state. It lives while the
// line has a copy, a known status or materialized token state; a status
// outlives the last copy while an L1 holds the line, and token state
// outlives both until its tokens have all gone home.
type lineRec struct {
	locs   [maxCopies]l2loc
	n      uint8 // copies in use: locs[:n]
	known  bool  // status set: the line has been on chip since forgotten
	shared bool  // two or more accessor cores
	owner  uint8 // first accessor while private
	tokens bool  // st is materialized; otherwise all tokens are at memory
	st     coherence.LineState
}

// empty reports whether the record holds nothing: no copy, no status and
// no token state, which reads exactly as no record.
func (r *lineRec) empty() bool { return r.n == 0 && !r.known && !r.tokens }

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

	// bankNode[b] is bank b's router.
	bankNode []noc.NodeID

	// lines holds each line's L2 copies, private bit and token state;
	// Dir reads and writes the token state through State and Peek.
	lines lineTable

	// Counts and Latency accumulate the Figure 6 decomposition; index by
	// Level. Latency is in cycles summed over accesses.
	Counts  [NumLevels]uint64
	Latency [NumLevels]uint64
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
	mapping, err := core.NewMapping(cfg.Banks, cfg.Cores, cfg.SetsPerBank)
	if err != nil {
		return nil, err
	}
	s := &Substrate{
		Cfg:   cfg,
		Mesh:  mesh,
		DRAM:  mem.NewDRAM(cfg.DRAM),
		Map:   mapping,
		RNG:   sim.NewRNG(cfg.Seed ^ 0xA11CE),
		lines: newLineTable(lineRecords(cfg), lineSlots(cfg)),
	}
	perNode := cfg.Banks / mesh.Nodes()
	for b := range cfg.Banks {
		s.bankNode = append(s.bankNode, noc.NodeID(b/perNode))
	}
	s.Dir = coherence.NewDirectory(s)
	s.Dir.Check = cfg.CheckTokens
	if s.L1, err = coherence.NewL1s(cfg.Cores, cfg.L1, s.Dir); err != nil {
		return nil, err
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
	return s, nil
}

// lineRecords sizes the line table: a record per line the L2 and every
// core's instruction and data L1 can hold at once; token state in flight
// may add a few.
func lineRecords(cfg Config) int { return cfg.L2Lines() + 2*cfg.Cores*cfg.L1ILines() }

// lineSlots sizes the line table's index: a table for twice the records,
// 65,536 slots on the scaled machine, so an FT run's ~16,800 live records
// load it to about a quarter.
func lineSlots(cfg Config) int { return lineMapSize(2 * lineRecords(cfg)) }

// Reset returns s to the state NewSubstrate(cfg) builds, in place, so a
// run on a reset substrate is the same as a run on a new one. cfg must
// describe the same machine as s.Cfg (SameMachine). Reset empties every
// L2 bank and L1 (blocks, set counters and roles, LRU clocks, statistics),
// clears every link, bank port and DRAM channel booking and counter,
// drops every line record, sets the directory's token check, reseeds the
// RNG and zeroes the Figure 6 counters.
func (s *Substrate) Reset(cfg Config) {
	if !s.Cfg.SameMachine(cfg) {
		panic("arch: Reset to a different machine")
	}
	s.Cfg = cfg
	s.Mesh.Reset()
	s.DRAM.Reset()
	s.Dir.Check = cfg.CheckTokens
	s.L1.Reset()
	for _, b := range s.Bank {
		b.Reset()
	}
	s.Reseed(cfg.Seed)
	s.lines.reset(lineRecords(cfg), lineSlots(cfg))
	s.Counts, s.Latency = [NumLevels]uint64{}, [NumLevels]uint64{}
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
	return s.bankNode[b]
}

// NodeOfCore returns core c's router.
func (s *Substrate) NodeOfCore(c int) noc.NodeID { return noc.NodeID(c) }

// record accumulates an access into the decomposition.
func (s *Substrate) record(level Level, at, done sim.Cycle) {
	s.Counts[level]++
	s.Latency[level] += uint64(done - at)
}

// RecordL1Hit lets the CPU model account a local L1 hit, at the L1's
// access latency, in the same decomposition.
func (s *Substrate) RecordL1Hit() {
	s.Counts[LocalL1]++
	s.Latency[LocalL1] += uint64(s.Cfg.L1.Latency)
}

// --- L2 residency management ---

// Open begins a transaction on line and returns the handle every step
// of the transaction reaches the line's record through, creating an
// empty record if the line has none. Each architecture's Access and
// WriteBack open their line first, and open nothing else: Open deletes
// the records the previous transaction left empty.
func (s *Substrate) Open(line mem.Line) lineRef { return s.lines.open(line) }

// Find implements coherence.Table: line's handle, if it has a record.
func (s *Substrate) Find(line mem.Line) (lineRef, bool) { return s.lines.find(line) }

// l2Has returns the copies of r's line currently in the L2.
func (s *Substrate) l2Has(r lineRef) []l2loc {
	rec := s.lines.rec(r)
	return rec.locs[:rec.n]
}

// State implements coherence.Table over the line record, materializing
// the all-at-memory state on first touch.
func (s *Substrate) State(r lineRef) *coherence.LineState {
	rec := s.lines.rec(r)
	if !rec.tokens {
		rec.tokens, rec.st = true, coherence.MemoryState()
	}
	return &rec.st
}

// Peek implements coherence.Table: the line's token state, or nil when
// it is not materialized (all tokens at memory).
func (s *Substrate) Peek(r lineRef) *coherence.LineState {
	if rec := s.lines.rec(r); rec.tokens {
		return &rec.st
	}
	return nil
}

// l2Find returns r's copy in bank, if any.
func (s *Substrate) l2Find(r lineRef, bank int) (l2loc, bool) {
	for _, loc := range s.l2Has(r) {
		if int(loc.bank) == bank {
			return loc, true
		}
	}
	return l2loc{}, false
}

// eviction is an L2 insertion's displaced block, with the handle of its
// line's record.
type eviction struct {
	cache.Evicted
	ref lineRef
}

// l2Insert places blk, a block of r's line, into (bank, set) under pol
// and returns the eviction for the caller to route. Copy bookkeeping for
// both the inserted and the evicted block is handled here; token/dirty
// consequences of the eviction are the caller's job via dropEvicted or
// an architecture-specific spill. The block keeps its record's slot in
// Ref, so an eviction finds its line's record without a lookup: a
// record keeps its slot while it has a copy.
func (s *Substrate) l2Insert(r lineRef, bank, set int, blk cache.Block, pol cache.Policy) eviction {
	blk.Ref = r.Index
	ev := eviction{Evicted: s.Bank[bank].Insert(set, blk, pol)}
	if !ev.Refused {
		s.addCopy(r, l2loc{bank: uint8(bank), class: blk.Class, set: uint16(set)})
	}
	if ev.Valid {
		ev.ref = lineRef{Line: ev.Block.Line, Index: ev.Block.Ref}
		s.removeWhere(ev.ref, bank)
	}
	return ev
}

// l2Invalidate removes r's line from bank and returns the dropped block.
func (s *Substrate) l2Invalidate(r lineRef, bank, set int) (cache.Block, bool) {
	blk, ok := s.Bank[bank].Invalidate(set, cache.LineQuery(r.Line))
	if ok {
		s.removeWhere(r, bank)
	}
	return blk, ok
}

// addCopy appends a copy to r's record.
func (s *Substrate) addCopy(r lineRef, loc l2loc) {
	rec := s.lines.rec(r)
	if rec.n == maxCopies {
		panic(fmt.Sprintf("arch: line %#x already has %d L2 copies, cannot add one in bank %d", r.Line, maxCopies, loc.bank))
	}
	rec.locs[rec.n] = loc
	rec.n++
}

// removeWhere drops r's copy in bank, moving the last copy into its
// place (collectForWrite claims the mesh in copy order). With no copy
// left, maybeForgetStatus decides what else of the record goes.
func (s *Substrate) removeWhere(r lineRef, bank int) {
	rec := s.lines.rec(r)
	for i := uint8(0); i < rec.n; i++ {
		if int(rec.locs[i].bank) == bank {
			rec.n--
			rec.locs[i] = rec.locs[rec.n]
			break
		}
	}
	if rec.n == 0 {
		s.maybeForgetStatus(r)
	}
}

// reclassWhere updates the cached class of r's copy in bank after a
// Reclass on the bank.
func (s *Substrate) reclassWhere(r lineRef, bank int, to cache.Class) {
	locs := s.l2Has(r)
	for i := range locs {
		if int(locs[i].bank) == bank {
			locs[i].class = to
		}
	}
}

// dropEvicted applies the default fate of an evicted L2 block: if it was
// the last on-chip L2 copy, its tokens return to memory and dirty data is
// written back to DRAM (posted).
func (s *Substrate) dropEvicted(at sim.Cycle, ev eviction, fromBank int) {
	if !ev.Valid {
		return
	}
	r := ev.ref
	if len(s.l2Has(r)) > 0 {
		return // other L2 copies remain; the pool keeps its tokens
	}
	st := s.Dir.State(r)
	dirty := ev.Block.Dirty || (st.Owner == coherence.HolderL2 && st.Dirty)
	if s.Dir.L2Evict(r) || dirty {
		// Posted write-back: bank -> memory controller.
		mcNode := s.Mesh.MemRouter(s.DRAM.ChannelOf(r.Line))
		t := s.Mesh.Send(at, s.NodeOfBank(fromBank), mcNode, noc.Data, s.Cfg.BlockBytes)
		s.DRAM.Write(t, r.Line)
	}
	s.maybeForgetStatus(r)
}

// --- SP/ESP private-bit status ---

// statusOf returns (shared?, firstOwner) for r's line, registering core
// c as the first accessor on first touch and upgrading to shared when a
// different core touches a private line (paper §2.1).
func (s *Substrate) statusOf(r lineRef, c int) (shared bool, owner int) {
	rec := s.lines.rec(r)
	if !rec.known {
		rec.known, rec.owner = true, uint8(c)
		return false, c
	}
	if !rec.shared && int(rec.owner) != c {
		rec.shared = true
	}
	return rec.shared, int(rec.owner)
}

// peekStatus returns the status without mutating it.
func (s *Substrate) peekStatus(r lineRef) (shared bool, owner int, known bool) {
	rec := s.lines.rec(r)
	if !rec.known {
		return false, 0, false
	}
	return rec.shared, int(rec.owner), true
}

// markShared forces a line's status to shared (victim touched by a
// non-owner, migration, etc.). An unknown status becomes shared with
// owner 0.
func (s *Substrate) markShared(r lineRef) {
	rec := s.lines.rec(r)
	rec.known, rec.shared = true, true
}

// maybeForgetStatus clears the private bit when the line has left the
// chip entirely: the status "remains with the block while it stays in the
// chip" (paper §2.1). If the token state has decayed back to
// all-at-memory it is redundant (a later State call re-materializes
// identical contents), so it goes too, and with it the record: this is
// the record's one deletion rule, which bounds the table's live entries.
// The emptied record is deleted at the next transaction's Open.
func (s *Substrate) maybeForgetStatus(r lineRef) {
	rec := s.lines.rec(r)
	if rec.n > 0 || rec.tokens && rec.st.Sharers() != 0 {
		return
	}
	rec.known, rec.shared, rec.owner = false, false, 0
	if rec.tokens && rec.st == coherence.MemoryState() {
		rec.tokens = false
	}
	if !rec.tokens {
		s.lines.markEmptied(r)
	}
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
func (s *Substrate) Upgrade(at sim.Cycle, c int, r lineRef) (Result, bool) {
	if !s.L1.Has(c, r.Line) {
		return Result{}, false
	}
	st := s.Dir.State(r)
	t := at
	if st.MemTokens > 0 {
		mc := s.Mesh.MemRouter(s.DRAM.ChannelOf(r.Line))
		tt := s.Mesh.Send(at, s.NodeOfCore(c), mc, noc.Control, 0)
		tt = s.Mesh.Send(tt, mc, s.NodeOfCore(c), noc.Control, 0)
		t = tt
	}
	if ack := s.collectForWrite(at, s.NodeOfCore(c), c, r); ack > t {
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
func (s *Substrate) collectForWrite(at sim.Cycle, viaNode noc.NodeID, reqCore int, r lineRef) sim.Cycle {
	st := s.Dir.State(r)
	done := at
	mask := st.Sharers()
	for c := 0; c < s.Cfg.Cores; c++ {
		if c == reqCore || !mask.Has(c) {
			continue
		}
		t := s.Mesh.Send(at, viaNode, s.NodeOfCore(c), noc.Control, 0)
		t = s.L1.Access(t, c, false)
		t = s.Mesh.Send(t, s.NodeOfCore(c), s.NodeOfCore(reqCore), noc.Control, 0)
		if t > done {
			done = t
		}
		s.L1.Invalidate(c, r.Line)
	}
	// Invalidate every L2 copy (tokens drain to the writer), in copy
	// order, from a copy of the record's fixed array: l2Invalidate
	// reorders the record's copies.
	rec := s.lines.rec(r)
	locs, n := rec.locs, rec.n
	for _, loc := range locs[:n] {
		bank := int(loc.bank)
		t := s.Mesh.Send(at, viaNode, s.NodeOfBank(bank), noc.Control, 0)
		t = s.Bank[bank].TagProbe(t)
		t = s.Mesh.Send(t, s.NodeOfBank(bank), s.NodeOfCore(reqCore), noc.Control, 0)
		if t > done {
			done = t
		}
		s.l2Invalidate(r, bank, int(loc.set))
	}
	s.Dir.GrantWriteL1(r, reqCore)
	return done
}

// complete is the last step of every read or write transaction, served
// at cycle t through the serialization point via: a write collects every
// token and completes when the last acknowledgement reaches core c; a
// read hands core c's L1 its tokens. Architectures record the access
// with the cycle complete returns, except D-NUCA, which records it before
// the write acknowledgements (a known defect, ROADMAP.md).
func (s *Substrate) complete(t sim.Cycle, via noc.NodeID, c int, r lineRef, write bool) sim.Cycle {
	if !write {
		s.Dir.GrantReadL1(r, c)
		return t
	}
	if ack := s.collectForWrite(t, via, c, r); ack > t {
		return ack
	}
	return t
}

// CheckInvariants verifies bank counters, the line table, copy
// bookkeeping and token conservation. Tests call it after driving
// traffic.
func (s *Substrate) CheckInvariants() error {
	for i, b := range s.Bank {
		if err := b.CheckInvariants(); err != nil {
			return fmt.Errorf("bank %d: %w", i, err)
		}
	}
	if err := s.lines.check(); err != nil {
		return err
	}
	// Every recorded copy must exist in its bank, and vice versa, with
	// the block naming its record's slot; every materialized token state
	// must conserve tokens. A record may be empty only while it waits for
	// the next Open to delete it.
	pending := map[uint32]bool{}
	for _, r := range s.lines.emptied {
		pending[r.Index] = true
	}
	if err := s.lines.forEach(func(r lineRef, rec *lineRec) error {
		if rec.empty() && !pending[r.Index] {
			return fmt.Errorf("arch: line %#x has an empty record", r.Line)
		}
		if err := s.Dir.Verify(r); err != nil {
			return err
		}
		for _, loc := range rec.locs[:rec.n] {
			if s.Bank[loc.bank].Peek(int(loc.set), cache.LineQuery(r.Line)) == nil {
				return fmt.Errorf("arch: copy of line %#x in bank %d not present in array", r.Line, loc.bank)
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
				r, ok := s.lines.find(blk.Line)
				if ok {
					_, ok = s.l2Find(r, bi)
				}
				if !ok {
					return fmt.Errorf("arch: bank %d holds line %#x without a recorded copy", bi, blk.Line)
				}
				if blk.Ref != r.Index {
					return fmt.Errorf("arch: bank %d's block of line %#x names slab slot %d, its record is at %d", bi, blk.Line, blk.Ref, r.Index)
				}
			}
		}
	}
	return nil
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
