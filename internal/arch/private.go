package arch

import (
	"espnuca/internal/cache"
	"espnuca/internal/coherence"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// Tiled is the "Private" baseline: each core's four nearest banks form a
// fully private L2 with unrestricted replication; every L1 write-back is
// stored in the local private L2 (paper §6.1). On a local miss, the
// request is broadcast to the other tiles and memory; the nearest holder
// responds.
type Tiled struct {
	s *Substrate
	// asr, when set, decides whether a remote L2/L1 read hit creates a
	// local copy. Plain Tiled never does (allocation happens on L1
	// write-back only); ASR layers adaptive replication on top.
	asr *ASR
}

// NewTiled builds the private baseline on a prepared substrate.
func NewTiled(s *Substrate) *Tiled { return &Tiled{s: s} }

// Name implements System.
func (a *Tiled) Name() string { return "private" }

// Sub implements System.
func (a *Tiled) Sub() *Substrate { return a.s }

// Access implements System.
func (a *Tiled) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	s := a.s
	r := s.Open(line)
	if write {
		if res, ok := s.Upgrade(at, c, r); ok {
			return res
		}
	}
	bank, set := s.Map.Private(line, c)
	reqNode := s.NodeOfCore(c)

	// Local private bank: same router, no hops.
	blk := s.Bank[bank].Lookup(set, cache.LineQuery(line))
	st := s.Dir.State(r)
	var t sim.Cycle
	level := LocalL2

	switch {
	case blk != nil && !ownedByRemoteL1(st, c):
		t = s.Bank[bank].Access(at)
	default:
		// Local miss (or stale local copy): broadcast to the other tiles
		// and, in parallel, to memory (paper Figure 2); the nearest
		// on-chip holder wins, otherwise the DRAM response (which must
		// still wait for the last probe's miss confirmation — token
		// counting requires knowing no probe will supply tokens).
		t = s.Bank[bank].TagProbe(at)
		probeDone := a.broadcastProbes(t, c, line)
		if resp, lvl, ok := a.bestOnChipResponse(t, c, r, st); ok {
			t, level = resp, lvl
			if t < probeDone {
				t = probeDone
			}
			if !write && a.asr != nil && a.asr.shouldReplicate(c) {
				a.fillLocal(t, c, r, false)
			}
		} else {
			memDone := s.memFetch(t, reqNode, line)
			t = memDone
			if t < probeDone {
				t = probeDone
			}
			level = OffChip
		}
	}

	t = s.complete(t, reqNode, c, r, write)
	s.record(level, at, t)
	return Result{Done: t, Level: level}
}

// broadcastProbes sends tag probes to every other tile's candidate bank
// and returns the cycle the slowest probe response is back (misses must
// be confirmed before memory data may be used, which token counting
// enforces; timing-wise the memory latency almost always dominates).
func (a *Tiled) broadcastProbes(at sim.Cycle, c int, line mem.Line) sim.Cycle {
	s := a.s
	done := at
	for o := 0; o < s.Cfg.Cores; o++ {
		if o == c {
			continue
		}
		ob, _ := s.Map.Private(line, o)
		t := s.Mesh.Send(at, s.NodeOfCore(c), s.NodeOfBank(ob), noc.Control, 0)
		t = s.Bank[ob].TagProbe(t)
		t = s.Mesh.Send(t, s.NodeOfBank(ob), s.NodeOfCore(c), noc.Control, 0)
		if t > done {
			done = t
		}
	}
	return done
}

// bestOnChipResponse finds the fastest on-chip source (remote tile L2 or
// remote L1) for r's line.
func (a *Tiled) bestOnChipResponse(at sim.Cycle, c int, r lineRef, st *coherence.LineState) (sim.Cycle, Level, bool) {
	s := a.s
	best := sim.Cycle(0)
	level := RemoteL2
	found := false
	// Remote tiles holding the line in L2.
	for _, loc := range s.l2Has(r) {
		bank := int(loc.bank)
		if s.Map.CoreOfBank(bank) == c {
			continue
		}
		t := s.Mesh.Send(at, s.NodeOfCore(c), s.NodeOfBank(bank), noc.Control, 0)
		t = s.Bank[bank].Access(t)
		t = s.Mesh.Send(t, s.NodeOfBank(bank), s.NodeOfCore(c), noc.Data, s.Cfg.BlockBytes)
		if !found || t < best {
			best, level, found = t, RemoteL2, true
		}
	}
	// Remote L1 holders (dirty owner has priority for correctness, but
	// any token holder can supply data).
	if ownedByRemoteL1(st, c) {
		t := a.s.l1Intervention(at, s.NodeOfCore(c), int(st.Owner-coherence.HolderL1), c)
		if !found || t < best {
			best, level, found = t, RemoteL1, true
		}
	} else if st.Sharers().Without(c) != 0 {
		holder := nearestSharer(s, st, c)
		if holder != c {
			t := a.s.l1Intervention(at, s.NodeOfCore(c), holder, c)
			if !found || t < best {
				best, level, found = t, RemoteL1, true
			}
		}
	}
	return best, level, found
}

// fillLocal allocates a copy of r's line in core c's private bank (ASR
// replication or CC-style placement).
func (a *Tiled) fillLocal(at sim.Cycle, c int, r lineRef, dirty bool) {
	s := a.s
	bank, set := s.Map.Private(r.Line, c)
	if _, ok := s.l2Find(r, bank); ok {
		if dirty {
			s.Dir.WriteBackDirty(r)
		}
		return
	}
	ev := s.l2Insert(r, bank, set, cache.Block{
		Valid: true, Line: r.Line, Class: cache.Private, Owner: int8(c), Dirty: dirty,
	}, cache.FlatLRU{})
	s.dropEvicted(at, ev, bank)
}

// WriteBack implements System: every L1 eviction, clean or dirty,
// allocates in the local private L2 — the tile L2 is a victim store for
// its L1 with unrestricted replication (paper §6.1).
func (a *Tiled) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	s := a.s
	r := s.Open(line)
	bank, _ := s.Map.Private(line, c)
	t := s.Bank[bank].Access(at)
	s.Dir.L1Evict(r, c, true)
	a.fillLocal(t, c, r, dirty)
	if dirty {
		s.Dir.WriteBackDirty(r)
	}
}

var _ System = (*Tiled)(nil)
