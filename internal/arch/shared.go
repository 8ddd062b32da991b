package arch

import (
	"espnuca/internal/cache"
	"espnuca/internal/coherence"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// SharedNUCA is the Static-NUCA baseline ("Shared"): every block lives in
// its address-interleaved home bank; requests go straight there (paper
// Figure 2a).
type SharedNUCA struct {
	s *Substrate
}

// NewSharedNUCA builds the baseline on a prepared substrate.
func NewSharedNUCA(s *Substrate) *SharedNUCA { return &SharedNUCA{s: s} }

// Name implements System.
func (a *SharedNUCA) Name() string { return "shared" }

// Sub implements System.
func (a *SharedNUCA) Sub() *Substrate { return a.s }

// Access implements System: probe the home bank; hit serves from there
// (with L1 intervention if a remote L1 owns newer data); miss forwards to
// the L1 holders known by the directory or to memory.
func (a *SharedNUCA) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	s := a.s
	r := s.Open(line)
	if write {
		if res, ok := s.Upgrade(at, c, r); ok {
			return res
		}
	}
	bank, set := s.Map.Shared(line)
	reqNode, homeNode := s.NodeOfCore(c), s.NodeOfBank(bank)
	level := SharedL2
	if homeNode == reqNode {
		level = LocalL2
	}

	t := s.Mesh.Send(at, reqNode, homeNode, noc.Control, 0)
	st := s.Dir.State(r)
	blk := s.Bank[bank].Lookup(set, cache.LineQuery(line))

	switch {
	case blk != nil && ownedByRemoteL1(st, c):
		// The L2 copy is stale: forward to the owning L1.
		t = s.Bank[bank].TagProbe(t)
		t = s.l1Intervention(t, homeNode, int(st.Owner-coherence.HolderL1), c)
		level = RemoteL1
	case blk != nil:
		t = s.Bank[bank].Access(t)
		t = s.Mesh.Send(t, homeNode, reqNode, noc.Data, s.Cfg.BlockBytes)
	case st.Sharers() != 0:
		// Not in L2, but an L1 holds it: TokenD forwards the request.
		t = s.Bank[bank].TagProbe(t)
		holder := nearestSharer(s, st, c)
		t = s.l1Intervention(t, homeNode, holder, c)
		level = RemoteL1
	default:
		// Off-chip: the home bank forwards to the memory controller; data
		// returns to the requester and the home bank allocates a copy.
		t = s.Bank[bank].TagProbe(t)
		t = s.memFetch(t, homeNode, line)
		t = s.Mesh.Send(t, homeNode, reqNode, noc.Data, s.Cfg.BlockBytes)
		level = OffChip
		if !write {
			s.Dir.L2Fill(r, coherence.TokensPerLine)
			ev := s.l2Insert(r, bank, set, cache.Block{
				Valid: true, Line: line, Class: cache.Shared, Owner: -1,
			}, cache.FlatLRU{})
			s.dropEvicted(t, ev, bank)
		}
	}

	t = s.complete(t, homeNode, c, r, write)
	s.record(level, at, t)
	return Result{Done: t, Level: level}
}

// WriteBack implements System: dirty L1 evictions allocate in the home
// bank; clean evictions release their tokens (to the resident L2 copy if
// one exists, to memory otherwise) without allocating.
func (a *SharedNUCA) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	s := a.s
	r := s.Open(line)
	bank, set := s.Map.Shared(line)
	_, resident := s.l2Find(r, bank)
	if !dirty {
		s.Dir.L1Evict(r, c, resident)
		if !resident {
			s.maybeForgetStatus(r)
		}
		return
	}
	t := s.Mesh.Send(at, s.NodeOfCore(c), s.NodeOfBank(bank), noc.Data, s.Cfg.BlockBytes)
	t = s.Bank[bank].Access(t)
	s.Dir.L1Evict(r, c, true)
	if resident {
		s.Dir.WriteBackDirty(r)
		return
	}
	ev := s.l2Insert(r, bank, set, cache.Block{
		Valid: true, Line: line, Class: cache.Shared, Owner: -1, Dirty: true,
	}, cache.FlatLRU{})
	s.Dir.WriteBackDirty(r)
	s.dropEvicted(t, ev, bank)
}

// ownedByRemoteL1 reports whether a different core's L1 owns dirty data.
func ownedByRemoteL1(st *coherence.LineState, c int) bool {
	if st.Owner < coherence.HolderL1 {
		return false
	}
	return st.Dirty && int(st.Owner-coherence.HolderL1) != c
}

// nearestSharer picks the token-holding L1 closest to the requester.
func nearestSharer(s *Substrate, st *coherence.LineState, c int) int {
	best, bestHops := -1, 1<<30
	reqNode := s.NodeOfCore(c)
	for o := 0; o < s.Cfg.Cores; o++ {
		if o == c || st.L1Tokens[o] == 0 {
			continue
		}
		if h := s.Mesh.Hops(reqNode, s.NodeOfCore(o)); h < bestHops {
			best, bestHops = o, h
		}
	}
	if best < 0 {
		// The requester itself may be the only token holder (e.g. an
		// upgrade): fall back to it.
		return c
	}
	return best
}

var _ System = (*SharedNUCA)(nil)
