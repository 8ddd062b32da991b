package arch

import (
	"espnuca/internal/cache"
	"espnuca/internal/coherence"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// RNUCA is Reactive-NUCA (Hardavellas et al., ISCA-09), which the paper
// discusses as the closest related proposal: data is classified at page
// granularity by the OS —
//
//   - private pages (touched by one core) are placed in that core's
//     local L2 slice;
//   - shared data pages are address-interleaved across all banks (like a
//     shared S-NUCA);
//   - instruction pages are replicated in clusters so each core fetches
//     from a nearby slice.
//
// The paper notes R-NUCA makes coarser-grained decisions than ESP-NUCA
// (page vs block), needs OS support, and performs close to a shared
// NUCA once variability is considered. The OS classification is modelled
// by the same first-toucher/upgrade tracking the SP-NUCA private bit
// uses, applied at page granularity.
type RNUCA struct {
	s *Substrate

	// pageState tracks the OS's page classification.
	pages map[mem.Line]*rnucaPage

	// Reclassifications counts private->shared page upgrades.
	Reclassifications uint64
}

// rnucaPage is one page's classification.
type rnucaPage struct {
	owner  int
	shared bool
	instr  bool
}

// pageBits is the page size in line bits: 6 bits = 64 lines = 4 KB.
const pageBits = 6

// NewRNUCA builds the R-NUCA counterpart.
func NewRNUCA(cfg Config) (*RNUCA, error) {
	s, err := NewSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	return &RNUCA{s: s, pages: make(map[mem.Line]*rnucaPage, 1<<14)}, nil
}

// Name implements System.
func (a *RNUCA) Name() string { return "r-nuca" }

// Sub implements System.
func (a *RNUCA) Sub() *Substrate { return a.s }

// classify returns the page record for a line, updating the
// classification with this access (the modelled OS page-table walk).
func (a *RNUCA) classify(line mem.Line, c int, ifetch bool) *rnucaPage {
	page := line >> pageBits
	p, ok := a.pages[page]
	if !ok {
		p = &rnucaPage{owner: c, instr: ifetch}
		a.pages[page] = p
		return p
	}
	if ifetch {
		p.instr = true
	}
	if !p.shared && p.owner != c && !p.instr {
		// Second toucher: the OS re-classifies the page as shared; the
		// paper's criticism of the coarse granularity is exactly that one
		// foreign touch moves a whole page's worth of blocks.
		p.shared = true
		a.Reclassifications++
		a.evictPagePlacements(page)
	}
	return p
}

// evictPagePlacements flushes a re-classified page's blocks from their
// old private placements (they re-fill at the interleaved location).
func (a *RNUCA) evictPagePlacements(page mem.Line) {
	s := a.s
	base := page << pageBits
	for off := mem.Line(0); off < 1<<pageBits; off++ {
		line := base + off
		for _, loc := range append([]l2loc(nil), s.l2Has(line)...) {
			if blk, ok := s.l2Invalidate(line, int(loc.bank), int(loc.set)); ok {
				if len(s.l2Has(line)) == 0 {
					dirty := blk.Dirty
					if s.Dir.L2Evict(line) || dirty {
						s.DRAM.Write(sim.Cycle(0), line)
					}
				}
			}
		}
		s.maybeForgetStatus(line)
	}
}

// placement returns the bank and set where the line lives under its
// page's current classification. Instruction pages replicate per
// cluster; the requester's local candidate is returned.
func (a *RNUCA) placement(line mem.Line, c int, p *rnucaPage) (bank, set int) {
	switch {
	case p.instr || !p.shared && p.owner == c:
		// Local slice (private data or the per-cluster instruction copy).
		return a.s.Map.Private(line, c)
	case !p.shared:
		// Private to another core: its slice.
		return a.s.Map.Private(line, p.owner)
	default:
		return a.s.Map.Shared(line)
	}
}

// Access implements System. R-NUCA has no search: the classification
// names the one location (instruction pages: the local copy first).
func (a *RNUCA) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	s := a.s
	if write {
		if res, ok := s.Upgrade(at, c, line); ok {
			return res
		}
	}
	p := a.classify(line, c, false)
	bank, set := a.placement(line, c, p)
	reqNode, node := s.NodeOfCore(c), s.NodeOfBank(bank)
	st := s.Dir.State(line)

	level := SharedL2
	if node == reqNode {
		level = LocalL2
	} else if !p.shared {
		level = RemoteL2
	}

	t := s.Mesh.Send(at, reqNode, node, noc.Control, 0)
	blk := s.Bank[bank].Lookup(set, cache.LineQuery(line))
	switch {
	case blk != nil && ownedByRemoteL1(st, c):
		t = s.Bank[bank].TagProbe(t)
		t = s.l1Intervention(t, node, int(st.Owner-coherence.HolderL1), c)
		level = RemoteL1
	case blk != nil:
		t = s.Bank[bank].Access(t)
		t = s.Mesh.Send(t, node, reqNode, noc.Data, s.Cfg.BlockBytes)
	case st.Sharers()&^(1<<uint(c)) != 0:
		t = s.Bank[bank].TagProbe(t)
		holder := nearestSharer(s, st, c)
		if holder != c {
			t = s.l1Intervention(t, node, holder, c)
			level = RemoteL1
			break
		}
		fallthrough
	default:
		t = s.Bank[bank].TagProbe(t)
		t = s.memFetch(t, reqNode, line)
		level = OffChip
		if !write {
			s.Dir.L2Fill(line, coherence.TokensPerLine)
			ev := s.l2Insert(bank, set, cache.Block{
				Valid: true, Line: line, Class: a.classOf(p), Owner: a.ownerOf(p, c),
			}, cache.FlatLRU{})
			s.dropEvicted(t, ev, bank)
		}
	}
	s.record(level, at, t)
	return Result{Done: s.complete(t, node, c, line, write), Level: level}
}

func (a *RNUCA) classOf(p *rnucaPage) cache.Class {
	if p.shared {
		return cache.Shared
	}
	return cache.Private
}

func (a *RNUCA) ownerOf(p *rnucaPage, c int) int {
	if p.shared {
		return -1
	}
	return c
}

// WriteBack implements System: evictions return to the page's placement.
func (a *RNUCA) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	s := a.s
	p := a.classify(line, c, false)
	bank, set := a.placement(line, c, p)
	t := s.Mesh.Send(at, s.NodeOfCore(c), s.NodeOfBank(bank), noc.Data, s.Cfg.BlockBytes)
	t = s.Bank[bank].Access(t)
	s.Dir.L1Evict(line, c, true)
	if _, ok := s.l2Find(line, bank); ok {
		if dirty {
			s.Dir.WriteBackDirty(line)
		}
		return
	}
	ev := s.l2Insert(bank, set, cache.Block{
		Valid: true, Line: line, Class: a.classOf(p), Owner: a.ownerOf(p, c), Dirty: dirty,
	}, cache.FlatLRU{})
	if dirty {
		s.Dir.WriteBackDirty(line)
	}
	s.dropEvicted(t, ev, bank)
}

var _ System = (*RNUCA)(nil)
