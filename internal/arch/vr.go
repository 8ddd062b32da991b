package arch

import (
	"espnuca/internal/cache"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// VictimReplication is Zhang & Asanovic's scheme (ISCA-05): a shared
// S-NUCA home placement, but when an L1 evicts a line whose home bank is
// remote, a replica of the victim is kept in the evicting core's local
// L2 slice, so a re-fetch hits locally instead of paying the home-bank
// round trip.
//
// The paper excludes VR from its evaluation because ASR and Cooperative
// Caching had already been shown to outperform it (§6.1); it is included
// here as an additional counterpart since the substrate supports it
// directly. Replicas never displace home (first-class) blocks of the
// local slice's own home traffic beyond plain LRU order — VR uses flat
// LRU, which is its known weakness.
type VictimReplication struct {
	base *SharedNUCA

	// ReplicaHits and ReplicasMade count the mechanism's activity.
	ReplicaHits, ReplicasMade uint64
}

// NewVictimReplication builds VR on a fresh substrate.
func NewVictimReplication(cfg Config) (*VictimReplication, error) {
	base, err := NewSharedNUCA(cfg)
	if err != nil {
		return nil, err
	}
	return &VictimReplication{base: base}, nil
}

// Name implements System.
func (a *VictimReplication) Name() string { return "victim-replication" }

// Sub implements System.
func (a *VictimReplication) Sub() *Substrate { return a.base.s }

// Access implements System: probe the local slice for a replica first,
// then fall through to the S-NUCA path.
func (a *VictimReplication) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	s := a.base.s
	if write {
		if res, ok := s.Upgrade(at, c, line); ok {
			return res
		}
	}
	pbank, pset := s.Map.Private(line, c)
	st := s.Dir.State(line)
	if blk := s.Bank[pbank].Lookup(pset, cache.ClassQuery(line, cache.Replica)); blk != nil && !ownedByRemoteL1(st, c) {
		a.ReplicaHits++
		t := s.complete(s.Bank[pbank].Access(at), s.NodeOfCore(c), c, line, write)
		s.record(LocalL2, at, t)
		return Result{Done: t, Level: LocalL2}
	}
	return a.base.Access(at, c, line, write)
}

// WriteBack implements System: dirty data goes home as in S-NUCA; in
// addition, victims of remote-homed lines leave a local replica.
func (a *VictimReplication) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	s := a.base.s
	a.base.WriteBack(at, c, line, dirty)
	hbank, _ := s.Map.Shared(line)
	if s.NodeOfBank(hbank) == s.NodeOfCore(c) {
		return // home is already local: nothing to replicate
	}
	pbank, pset := s.Map.Private(line, c)
	if _, ok := s.l2Find(line, pbank); ok {
		return
	}
	// Replicas are clean: the dirty copy (if any) went home above.
	ev := s.l2Insert(pbank, pset, cache.Block{
		Valid: true, Line: line, Class: cache.Replica, Owner: c,
	}, cache.FlatLRU{})
	a.ReplicasMade++
	s.dropEvicted(at, ev, pbank)
}

var _ System = (*VictimReplication)(nil)
