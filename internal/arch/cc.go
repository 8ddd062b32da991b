package arch

import (
	"espnuca/internal/cache"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// CC is Cooperative Caching (Chang & Sohi): the private Tiled
// organization plus (a) spilling locally-evicted blocks into a randomly
// chosen peer tile with the configured cooperation probability, biased
// toward "singlets" (the only on-chip copy), and (b) a central-directory
// lookup that lets local misses hit spilled or peer copies. The paper
// evaluates cooperation probabilities 0, 30, 70 and 100%.
type CC struct {
	t    *Tiled
	prob float64

	// Spills and SpillHits count cooperation activity.
	Spills, SpillHits uint64
}

// NewCC builds Cooperative Caching on a prepared substrate, at its
// config's CCProbability.
func NewCC(s *Substrate) *CC { return &CC{t: NewTiled(s), prob: s.Cfg.CCProbability} }

// Name implements System.
func (a *CC) Name() string { return "cc" }

// Sub implements System.
func (a *CC) Sub() *Substrate { return a.t.s }

// Access implements System: the Tiled path already consults the global
// residency (the central coherence engine), so spilled copies are found
// exactly like peer copies.
func (a *CC) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	res := a.t.Access(at, c, line, write)
	if res.Level == RemoteL2 {
		a.SpillHits++
	}
	return res
}

// WriteBack implements System: like Tiled, but when the local allocation
// evicts a singlet, the victim is forwarded to a random peer tile with
// the cooperation probability (one-chance forwarding).
func (a *CC) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	s := a.t.s
	r := s.Open(line)
	bank, set := s.Map.Private(line, c)
	t := s.Bank[bank].Access(at)
	s.Dir.L1Evict(r, c, true)
	if _, ok := s.l2Find(r, bank); ok {
		if dirty {
			s.Dir.WriteBackDirty(r)
		}
		return
	}
	ev := s.l2Insert(r, bank, set, cache.Block{
		Valid: true, Line: line, Class: cache.Private, Owner: int8(c), Dirty: dirty,
	}, cache.FlatLRU{})
	if dirty {
		s.Dir.WriteBackDirty(r)
	}
	a.routeEviction(t, c, ev, bank)
}

// routeEviction spills eligible victims to a peer tile.
func (a *CC) routeEviction(at sim.Cycle, c int, ev eviction, fromBank int) {
	s := a.t.s
	if !ev.Valid {
		return
	}
	blk := ev.Block
	// Spill only first-class (non-spilled) singlets, with probability
	// prob; a spilled block (marked Victim) evicted again is dropped
	// (one-chance forwarding).
	singlet := len(s.l2Has(ev.ref)) == 0
	if blk.Class != cache.Private || !singlet || !s.RNG.Bool(a.prob) {
		s.dropEvicted(at, ev, fromBank)
		return
	}
	// Choose a random peer tile.
	peer := s.RNG.Intn(s.Cfg.Cores - 1)
	if peer >= c {
		peer++
	}
	pbank, pset := s.Map.Private(blk.Line, peer)
	t := s.Mesh.Send(at, s.NodeOfBank(fromBank), s.NodeOfBank(pbank), noc.Data, s.Cfg.BlockBytes)
	t = s.Bank[pbank].Access(t)
	sev := s.l2Insert(ev.ref, pbank, pset, cache.Block{
		Valid: true, Line: blk.Line, Class: cache.Victim, Owner: blk.Owner, Dirty: blk.Dirty,
	}, cache.FlatLRU{})
	a.Spills++
	s.dropEvicted(t, sev, pbank)
}

var _ System = (*CC)(nil)
