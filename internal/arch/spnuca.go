package arch

import (
	"fmt"

	"espnuca/internal/cache"
	"espnuca/internal/coherence"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// PartitionKind selects how SP-NUCA arbitrates private vs shared ways
// within a set (paper Figure 4).
type PartitionKind int

// Partitioning variants.
const (
	// FlatLRUPartition is the paper's choice: plain LRU over the whole
	// set, letting recency allocate ways between classes.
	FlatLRUPartition PartitionKind = iota
	// ShadowTagPartition uses per-set shadow tags (Suh/Dybdahl style), a
	// more accurate but costlier monitor.
	ShadowTagPartition
	// StaticPartitionKind reserves a fixed private/shared split
	// (paper: 12+4).
	StaticPartitionKind
)

// SPNUCA implements the Shared Private-NUCA of paper §2: one private bit
// per block, dual address interpretation, probe chain private bank ->
// shared home bank -> other private banks -> memory (Figure 2b), with
// migration of discovered remote-private blocks to their home bank.
type SPNUCA struct {
	s    *Substrate
	kind PartitionKind
	// pol is the replacement policy per bank (shadow policies hold
	// per-bank state); ESP-NUCA overwrites it with its own.
	pol []cache.Policy
	// shadow is non-nil for ShadowTagPartition, indexed by bank.
	shadow []*cache.ShadowPolicy

	// privateMatch and homeMatch are the classes the probe chain matches
	// in the private bank (step 1) and the home bank (step 2). ESP-NUCA
	// widens them to its replicas and victims.
	privateMatch, homeMatch cache.ClassMask
	// esp is the ESP-NUCA extension of the probe chain (helping blocks
	// and set sampling); nil for plain SP-NUCA.
	esp *ESPNUCA

	// Migrations counts private->shared home migrations.
	Migrations uint64
}

// NewSPNUCA builds SP-NUCA with the given partitioning variant on a
// prepared substrate.
func NewSPNUCA(s *Substrate, kind PartitionKind) (*SPNUCA, error) {
	cfg := s.Cfg
	a := &SPNUCA{s: s, kind: kind, privateMatch: cache.MaskPrivate, homeMatch: cache.MaskShared,
		pol: make([]cache.Policy, 0, cfg.Banks)}
	for b := 0; b < cfg.Banks; b++ {
		switch kind {
		case FlatLRUPartition:
			a.pol = append(a.pol, cache.FlatLRU{})
		case ShadowTagPartition:
			sp := cache.NewShadowPolicy(cfg.SetsPerBank, 8)
			a.shadow = append(a.shadow, sp)
			a.pol = append(a.pol, sp)
		case StaticPartitionKind:
			a.pol = append(a.pol, cache.StaticPartition{PrivateWays: cfg.StaticPrivateWays})
		default:
			return nil, fmt.Errorf("arch: unknown partition kind %d", kind)
		}
	}
	return a, nil
}

// Name implements System.
func (a *SPNUCA) Name() string {
	switch a.kind {
	case ShadowTagPartition:
		return "sp-nuca-shadow"
	case StaticPartitionKind:
		return "sp-nuca-static"
	}
	return "sp-nuca"
}

// Sub implements System.
func (a *SPNUCA) Sub() *Substrate { return a.s }

// Access implements System with the Figure 2b probe chain.
func (a *SPNUCA) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	t, level := a.resolve(at, c, line, write)
	a.s.record(level, at, t)
	return Result{Done: t, Level: level}
}

// resolve walks the SP-NUCA probe chain, with ESP-NUCA's helping blocks
// when a.esp is set.
func (a *SPNUCA) resolve(at sim.Cycle, c int, line mem.Line, write bool) (sim.Cycle, Level) {
	s := a.s
	if write {
		if res, ok := s.Upgrade(at, c, line); ok {
			// Upgrade has already recorded the request under LocalL1, and
			// Access records it again: the SP-NUCA family counts an
			// upgrade twice in the Figure 6 decomposition, where every
			// other architecture returns Upgrade's result without
			// recording it again. A known defect, kept until the result
			// goldens are regenerated (ROADMAP.md).
			return res.Done, res.Level
		}
	}
	reqNode := s.NodeOfCore(c)
	shared, _ := s.statusOf(line, c)
	st := s.Dir.State(line)

	// Step 1: the requester's private bank (same router: no hops).
	pbank, pset := s.Map.Private(line, c)
	pblk := s.Bank[pbank].Lookup(pset, cache.Query{Line: line, Classes: a.privateMatch, Owner: cache.AnyOwner})
	a.observeSample(pbank, pset, pblk != nil && pblk.Class.FirstClass())
	if pblk != nil && !ownedByRemoteL1(st, c) {
		t := s.Bank[pbank].Access(at)
		return s.complete(t, reqNode, c, line, write), LocalL2
	}
	if a.shadow != nil && pblk == nil && !shared {
		a.shadow[pbank].OnMiss(pset, line, cache.Private)
	}
	t := s.Bank[pbank].TagProbe(at)

	// Step 2: forward to the shared home bank (and, in parallel, notify
	// the memory controller - modelled by starting the DRAM fetch from
	// this same cycle if it ends up being needed).
	memStart := t
	hbank, hset := s.Map.Shared(line)
	homeNode := s.NodeOfBank(hbank)
	t = s.Mesh.Send(t, reqNode, homeNode, noc.Control, 0)

	hblk := s.Bank[hbank].Lookup(hset, cache.Query{Line: line, Classes: a.homeMatch, Owner: cache.AnyOwner})
	a.observeSample(hbank, hset, hblk != nil && hblk.Class.FirstClass())

	level := SharedL2
	if homeNode == reqNode {
		level = LocalL2
	}
	switch {
	case hblk != nil && ownedByRemoteL1(st, c):
		// Stale home copy: forward to the owning L1 (step 3 of Fig 2b).
		t = s.Bank[hbank].TagProbe(t)
		t = s.l1Intervention(t, homeNode, int(st.Owner-coherence.HolderL1), c)
		return s.complete(t, homeNode, c, line, write), RemoteL1
	case hblk != nil:
		t = s.Bank[hbank].Access(t)
		done := s.Mesh.Send(t, homeNode, reqNode, noc.Data, s.Cfg.BlockBytes)
		if a.esp != nil {
			a.esp.onHomeHit(t, c, line, hbank, hset, hblk)
		}
		return s.complete(done, homeNode, c, line, write), level
	}
	if a.shadow != nil && shared {
		a.shadow[hbank].OnMiss(hset, line, cache.Shared)
	}
	t = s.Bank[hbank].TagProbe(t)

	// Step 3': the block may be private in another core's bank. The home
	// bank forwards the request to the other private banks.
	if owner, obank, oset, ok := a.findRemotePrivate(line, c); ok {
		probe := s.Mesh.Send(t, homeNode, s.NodeOfBank(obank), noc.Control, 0)
		probe = s.Bank[obank].Access(probe)
		done := s.Mesh.Send(probe, s.NodeOfBank(obank), reqNode, noc.Data, s.Cfg.BlockBytes)
		a.migrateToHome(probe, line, owner, obank, oset, hbank, hset)
		return s.complete(done, homeNode, c, line, write), RemoteL2
	}

	// Step 3: L1-only holders (line fell out of L2 but lives in an L1).
	if st.Sharers().Without(c) != 0 {
		holder := nearestSharer(s, st, c)
		if holder != c {
			done := s.l1Intervention(t, homeNode, holder, c)
			// A second core is touching the line: it is shared now.
			s.markShared(line)
			return s.complete(done, homeNode, c, line, write), RemoteL1
		}
	}

	// Memory: the fetch was launched in parallel with step 2 (paper
	// Figure 2b message 2 goes to both home bank and memory controller).
	done := s.memFetch(memStart, reqNode, line)
	if done < t {
		done = t // the on-chip miss confirmation must arrive too
	}
	if !write {
		// A block arriving from memory has its private bit set and is
		// stored in the bank closest to its only user (paper §2.1) -
		// unless it is already known shared, in which case it fills home.
		s.Dir.L2Fill(line, coherence.TokensPerLine)
		if shared {
			ev := s.l2Insert(hbank, hset, cache.Block{
				Valid: true, Line: line, Class: cache.Shared, Owner: -1,
			}, a.pol[hbank])
			a.routeEviction(done, ev, hbank)
		} else {
			ev := s.l2Insert(pbank, pset, cache.Block{
				Valid: true, Line: line, Class: cache.Private, Owner: c,
			}, a.pol[pbank])
			a.routeEviction(done, ev, pbank)
		}
	}
	return s.complete(done, homeNode, c, line, write), OffChip
}

// observeSample feeds ESP-NUCA's set samplers; plain SP-NUCA has none.
func (a *SPNUCA) observeSample(bank, set int, firstClassHit bool) {
	if a.esp != nil {
		a.esp.observe(bank, set, firstClassHit)
	}
}

// findRemotePrivate locates a private copy of line in another core's
// partition.
func (a *SPNUCA) findRemotePrivate(line mem.Line, c int) (owner, bank, set int, ok bool) {
	for _, loc := range a.s.l2Has(line) {
		if loc.class != cache.Private {
			continue
		}
		o := a.s.Map.CoreOfBank(int(loc.bank))
		if o != c {
			return o, int(loc.bank), int(loc.set), true
		}
	}
	return 0, 0, 0, false
}

// migrateToHome resets the private bit and moves the block to its shared
// home bank (paper §2.3): further accesses hit in the shared bank.
func (a *SPNUCA) migrateToHome(at sim.Cycle, line mem.Line, owner, obank, oset, hbank, hset int) {
	s := a.s
	blk, ok := s.l2Invalidate(line, obank, oset)
	if !ok {
		return
	}
	a.Migrations++
	s.markShared(line)
	ev := s.l2Insert(hbank, hset, cache.Block{
		Valid: true, Line: line, Class: cache.Shared, Owner: -1, Dirty: blk.Dirty,
	}, a.pol[hbank])
	a.routeEviction(at, ev, hbank)
}

// routeEviction applies the default eviction fate; ESP-NUCA turns
// evicted private blocks into victims instead (see espnuca.go).
func (a *SPNUCA) routeEviction(at sim.Cycle, ev cache.Evicted, fromBank int) {
	if a.esp != nil {
		a.esp.routeEviction(at, ev, fromBank)
		return
	}
	a.s.dropEvicted(at, ev, fromBank)
}

// WriteBack implements System: L1 evictions follow the private bit
// (private blocks to the private bank, shared blocks to the home bank);
// clean evictions allocate too, keeping recently-used blocks on chip.
func (a *SPNUCA) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	s := a.s
	shared, _, known := s.peekStatus(line)
	s.Dir.L1Evict(line, c, true)
	markDirty := func() {
		if dirty {
			s.Dir.WriteBackDirty(line)
		}
	}
	if known && shared {
		hbank, hset := s.Map.Shared(line)
		t := s.Mesh.Send(at, s.NodeOfCore(c), s.NodeOfBank(hbank), noc.Data, s.Cfg.BlockBytes)
		t = s.Bank[hbank].Access(t)
		if _, ok := s.l2Find(line, hbank); ok {
			markDirty()
			return
		}
		ev := s.l2Insert(hbank, hset, cache.Block{
			Valid: true, Line: line, Class: cache.Shared, Owner: -1, Dirty: dirty,
		}, a.pol[hbank])
		markDirty()
		a.routeEviction(t, ev, hbank)
		return
	}
	pbank, pset := s.Map.Private(line, c)
	t := s.Bank[pbank].Access(at)
	if _, ok := s.l2Find(line, pbank); ok {
		markDirty()
		return
	}
	ev := s.l2Insert(pbank, pset, cache.Block{
		Valid: true, Line: line, Class: cache.Private, Owner: c, Dirty: dirty,
	}, a.pol[pbank])
	markDirty()
	a.routeEviction(t, ev, pbank)
}

var _ System = (*SPNUCA)(nil)
