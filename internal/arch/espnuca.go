package arch

import (
	"espnuca/internal/cache"
	"espnuca/internal/core"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// ESPNUCA is the paper's proposal (§3): SP-NUCA extended with helping
// blocks — replicas of shared data in the requester's private partition
// and victims of remote private data in the shared partition — governed
// either by flat LRU (the Figure 5 baseline) or by the protected-LRU
// policy with per-bank set sampling and EMA-driven nmax adaptation.
type ESPNUCA struct {
	sp        *SPNUCA
	protected bool
	samplers  []*core.Sampler // per bank, nil when flat LRU

	// ReplicasOff and VictimsOff disable one helping-block mechanism;
	// used by the ablation benchmarks to attribute ESP-NUCA's gains.
	ReplicasOff, VictimsOff bool

	// Replicas and Victims count helping-block creations; RefusedHelping
	// counts inserts rejected by protected LRU.
	Replicas, Victims, RefusedHelping uint64
}

// NewESPNUCA builds ESP-NUCA on a prepared substrate; protected selects
// protected LRU (the paper's final configuration) over flat LRU.
func NewESPNUCA(s *Substrate, protected bool) (*ESPNUCA, error) {
	sp, err := NewSPNUCA(s, FlatLRUPartition)
	if err != nil {
		return nil, err
	}
	cfg := s.Cfg
	a := &ESPNUCA{sp: sp, protected: protected}
	sp.esp = a
	sp.privateMatch |= cache.MaskReplica
	sp.homeMatch |= cache.MaskVictim
	if !protected {
		return a, nil // SP-NUCA's flat LRU
	}
	a.samplers = make([]*core.Sampler, 0, len(sp.pol))
	for b := range sp.pol {
		smp := core.NewSampler(cfg.Sampler, cfg.Ways)
		core.AssignRoles(sp.s.Bank[b], cfg.Sampler)
		a.samplers = append(a.samplers, smp)
		sp.pol[b] = core.ProtectedLRU{S: smp}
	}
	return a, nil
}

// Name implements System.
func (a *ESPNUCA) Name() string {
	if a.protected {
		return "esp-nuca"
	}
	return "esp-nuca-flat"
}

// Sub implements System.
func (a *ESPNUCA) Sub() *Substrate { return a.sp.s }

// Access implements System with SP-NUCA's probe chain, which calls back
// into onHomeHit, routeEviction and observe.
func (a *ESPNUCA) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	return a.sp.Access(at, c, line, write)
}

// WriteBack implements System with SP-NUCA's write-back path.
func (a *ESPNUCA) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	a.sp.WriteBack(at, c, line, dirty)
}

// observe feeds a probe of a sampled set to its bank's hit-rate
// estimators; flat LRU has no samplers.
func (a *ESPNUCA) observe(bank, set int, firstClassHit bool) {
	if a.samplers == nil {
		return
	}
	if bset := a.sp.s.Bank[bank].Set(set); bset.Sampled {
		a.samplers[bank].Observe(bset.Role, firstClassHit)
	}
}

// onHomeHit runs when the probe chain hits in the shared home bank.
// Two ESP-NUCA behaviours attach here:
//
//   - victim promotion: a victim touched by a core other than its owner
//     becomes a first-class shared block in place (a second core is now
//     using it);
//   - replica creation: a shared block served from a remote home bank is
//     copied into the requester's private partition as a helping block,
//     subject to the replacement policy's admission decision.
func (a *ESPNUCA) onHomeHit(t sim.Cycle, c int, r lineRef, bank, set int, blk *cache.Block) {
	s := a.sp.s
	if blk.Class == cache.Victim {
		if int(blk.Owner) != c {
			s.Bank[bank].Reclass(set, cache.ClassQuery(r.Line, cache.Victim), cache.Shared, -1)
			s.reclassWhere(r, bank, cache.Shared)
			s.markShared(r)
		}
		return
	}
	// Replica creation for remote shared hits.
	if blk.Class != cache.Shared || a.ReplicasOff {
		return
	}
	if s.NodeOfBank(bank) == s.NodeOfCore(c) {
		return // already local: nothing to gain
	}
	pbank, pset := s.Map.Private(r.Line, c)
	if pbank == bank {
		return
	}
	if _, ok := s.l2Find(r, pbank); ok {
		return // replica already present
	}
	ev := s.l2Insert(r, pbank, pset, cache.Block{
		Valid: true, Line: r.Line, Class: cache.Replica, Owner: int8(c),
	}, a.sp.pol[pbank])
	if ev.Refused {
		a.RefusedHelping++
		return
	}
	a.Replicas++
	a.routeEviction(t, ev, pbank)
}

// routeEviction is ESP-NUCA's eviction fate: an evicted first-class
// private block is spilled into its home bank's shared partition as a
// victim (helping block) instead of being dropped; everything else takes
// the default path.
func (a *ESPNUCA) routeEviction(at sim.Cycle, ev eviction, fromBank int) {
	s := a.sp.s
	if !ev.Valid {
		return
	}
	blk := ev.Block
	if blk.Class != cache.Private || a.VictimsOff {
		s.dropEvicted(at, ev, fromBank)
		return
	}
	hbank, hset := s.Map.Shared(blk.Line)
	if hbank == fromBank {
		s.dropEvicted(at, ev, fromBank)
		return
	}
	if _, ok := s.l2Find(ev.ref, hbank); ok {
		s.dropEvicted(at, ev, fromBank)
		return
	}
	t := s.Mesh.Send(at, s.NodeOfBank(fromBank), s.NodeOfBank(hbank), noc.Data, s.Cfg.BlockBytes)
	t = s.Bank[hbank].Access(t)
	vev := s.l2Insert(ev.ref, hbank, hset, cache.Block{
		Valid: true, Line: blk.Line, Class: cache.Victim, Owner: blk.Owner, Dirty: blk.Dirty,
	}, a.sp.pol[hbank])
	if vev.Refused {
		a.RefusedHelping++
		s.dropEvicted(t, ev, fromBank)
		return
	}
	a.Victims++
	// The displaced block from the victim insert takes the default path:
	// spilling victims recursively would ping-pong helping blocks.
	s.dropEvicted(t, vev, hbank)
}

// NMaxHistogram returns the current nmax of every bank (adaptivity
// studies); nil when running flat LRU.
func (a *ESPNUCA) NMaxHistogram() []int {
	if !a.protected {
		return nil
	}
	out := make([]int, len(a.samplers))
	for i, s := range a.samplers {
		out[i] = s.NMax()
	}
	return out
}

// Samplers exposes the per-bank controllers (nil entries when flat).
func (a *ESPNUCA) Samplers() []*core.Sampler { return a.samplers }

var _ System = (*ESPNUCA)(nil)
