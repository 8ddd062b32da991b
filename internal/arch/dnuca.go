package arch

import (
	"espnuca/internal/cache"
	"espnuca/internal/coherence"
	"espnuca/internal/mem"
	"espnuca/internal/noc"
	"espnuca/internal/sim"
)

// DNUCA is the dynamically-mapped NUCA comparison point (Kim et al.,
// implemented as in Beckmann & Wood): a line maps to a bank *set* (one
// mesh column), may live in any bank of that column, migrates toward its
// requesters on hits, and replicates on remote hits. Search is idealized
// ("perfect search", paper §6.1): the requester magically knows the
// nearest copy and probes only that bank — which is why the paper calls
// D-NUCA costly yet uses it as the strongest shared-derived latency
// optimizer.
type DNUCA struct {
	s *Substrate

	// MigrationOff and ReplicationOff disable the corresponding
	// mechanism; used by the ablation benchmarks to attribute D-NUCA's
	// behaviour to its two moving parts.
	MigrationOff, ReplicationOff bool

	// lastReq implements promotion hysteresis: a block moves or
	// replicates only on the second consecutive remote hit by the same
	// core, suppressing ping-pong between alternating requesters.
	lastReq lineMap[int8]

	// Migs and Reps count migrations and replications.
	Migs, Reps uint64

	// bankOrder[col][core] is the column's bank list ordered by distance
	// from the core, precomputed so the per-access lookup is a slice read
	// instead of a build-and-sort (callers never mutate the shared slice).
	bankOrder [][][]int
}

// NewDNUCA builds the idealized D-NUCA on a prepared substrate.
func NewDNUCA(s *Substrate) *DNUCA {
	cfg := s.Cfg
	a := &DNUCA{s: s, lastReq: newLineMap[int8](3 << 12)}
	// Every list is a capped window of one backing array.
	cols := cfg.NoC.Cols
	order := make([]int, 0, cfg.Banks*cfg.Cores)
	lists := make([][]int, cols*cfg.Cores)
	a.bankOrder = make([][][]int, cols)
	for col := range a.bankOrder {
		a.bankOrder[col] = lists[col*cfg.Cores : (col+1)*cfg.Cores]
		for c := range a.bankOrder[col] {
			start := len(order)
			order = a.appendBanksInColumn(order, col, c)
			a.bankOrder[col][c] = order[start:len(order):len(order)]
		}
	}
	return a
}

// Name implements System.
func (a *DNUCA) Name() string { return "d-nuca" }

// Sub implements System.
func (a *DNUCA) Sub() *Substrate { return a.s }

// column returns the bankset (mesh column) of a line and the set index
// within a bank.
func (a *DNUCA) column(line mem.Line) (col, set int) {
	cols := a.s.Cfg.NoC.Cols
	col = int(uint64(line) % uint64(cols))
	set = int((uint64(line) / uint64(cols)) % uint64(a.s.Cfg.SetsPerBank))
	return col, set
}

// banksInColumn lists the banks of a column ordered by distance from the
// requesting core (a precomputed shared slice; do not mutate).
func (a *DNUCA) banksInColumn(col, c int) []int {
	return a.bankOrder[col][c]
}

// appendBanksInColumn appends one bankOrder entry to dst at
// construction time.
func (a *DNUCA) appendBanksInColumn(dst []int, col, c int) []int {
	s := a.s
	perNode := s.Cfg.Banks / s.Mesh.Nodes()
	start := len(dst)
	for node := 0; node < s.Mesh.Nodes(); node++ {
		if node%s.Cfg.NoC.Cols != col {
			continue
		}
		for k := 0; k < perNode; k++ {
			dst = append(dst, node*perNode+k)
		}
	}
	// Order by hop distance from the requester.
	banks := dst[start:]
	reqNode := s.NodeOfCore(c)
	for i := 1; i < len(banks); i++ {
		for j := i; j > 0 && s.Mesh.Hops(reqNode, s.NodeOfBank(banks[j])) <
			s.Mesh.Hops(reqNode, s.NodeOfBank(banks[j-1])); j-- {
			banks[j], banks[j-1] = banks[j-1], banks[j]
		}
	}
	return dst
}

// Access implements System with perfect search over the bankset.
func (a *DNUCA) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	s := a.s
	if write {
		if res, ok := s.Upgrade(at, c, line); ok {
			return res
		}
	}
	col, set := a.column(line)
	reqNode := s.NodeOfCore(c)
	st := s.Dir.State(line)

	// Perfect search: find the nearest resident copy in the column.
	banks := a.banksInColumn(col, c)
	var hitBank, hitSet int = -1, set
	for _, b := range banks {
		if _, ok := s.l2Find(line, b); ok {
			hitBank = b
			break
		}
	}

	switch {
	case hitBank >= 0 && !ownedByRemoteL1(st, c):
		node := s.NodeOfBank(hitBank)
		t := s.Mesh.Send(at, reqNode, node, noc.Control, 0)
		s.Bank[hitBank].Lookup(hitSet, cache.LineQuery(line))
		t = s.Bank[hitBank].Access(t)
		t = s.Mesh.Send(t, node, reqNode, noc.Data, s.Cfg.BlockBytes)
		level := SharedL2
		if node == reqNode {
			level = LocalL2
		} else if !write {
			a.promote(t, line, hitBank, hitSet, banks, c)
		}
		s.record(level, at, t)
		return Result{Done: s.complete(t, node, c, line, write), Level: level}

	case ownedByRemoteL1(st, c):
		t := a.s.l1Intervention(at, reqNode, int(st.Owner-coherence.HolderL1), c)
		s.record(RemoteL1, at, t)
		return Result{Done: s.complete(t, reqNode, c, line, write), Level: RemoteL1}

	case st.Sharers().Without(c) != 0:
		holder := nearestSharer(s, st, c)
		t := at
		if holder != c {
			t = a.s.l1Intervention(at, reqNode, holder, c)
		}
		s.record(RemoteL1, at, t)
		return Result{Done: s.complete(t, reqNode, c, line, write), Level: RemoteL1}
	}

	// Off-chip: probe nearest bank (tag miss), fetch, allocate at the far
	// end of the bankset. New blocks enter the bottom "generation" and
	// earn proximity through promotion on reuse (gradual promotion);
	// single-use streaming data therefore never pollutes the near banks
	// nor gains their latency.
	near := banks[0]
	t := s.Mesh.Send(at, reqNode, s.NodeOfBank(near), noc.Control, 0)
	t = s.Bank[near].TagProbe(t)
	t = s.memFetch(t, reqNode, line)
	if !write {
		s.Dir.L2Fill(line, coherence.TokensPerLine)
		a.insertFar(t, set, banks, line, cache.Block{
			Valid: true, Line: line, Class: cache.Shared, Owner: -1,
		})
	}
	s.record(OffChip, at, t)
	return Result{Done: s.complete(t, reqNode, c, line, write), Level: OffChip}
}

// insertFar allocates blk into a line-hashed bank of the bankset: fills
// spread over the whole column (full capacity), and blocks then earn
// proximity to their users through promotion on reuse. Single-use
// streaming data stays at its hashed position (average distance, like a
// shared cache), which is exactly the regime where the paper finds
// D-NUCA unrewarding.
func (a *DNUCA) insertFar(at sim.Cycle, set int, ordered []int, line mem.Line, blk cache.Block) {
	s := a.s
	bank := ordered[int(uint64(line)>>7)%len(ordered)]
	if _, ok := s.l2Find(line, bank); ok {
		return
	}
	ev := s.l2Insert(bank, set, blk, cache.FlatLRU{})
	s.dropEvicted(at, ev, bank)
}

// promote moves or copies the block one step closer to the requester.
// Blocks used by a single core migrate by *swapping* with the victim in
// the closer bank (classic D-NUCA gradual promotion: no capacity is
// lost). Blocks shared by several cores are replicated instead — but a
// replica may only displace another replica, never first-class data, so
// replication cannot thrash the bankset (the replication-enabled D-NUCA
// variant of §6.1).
func (a *DNUCA) promote(at sim.Cycle, line mem.Line, fromBank, set int, ordered []int, c int) {
	s := a.s
	shared, _ := s.statusOf(line, c)
	if last, ok := a.lastReq.get(line); !ok || last != int8(c) {
		a.lastReq.set(line, int8(c))
		return
	}
	for _, b := range ordered {
		if b == fromBank {
			return // already nearest
		}
		if _, ok := s.l2Find(line, b); ok {
			continue
		}
		st := s.Dir.Peek(line)
		dirtyHere := st != nil && st.Owner == coherence.HolderL2 && st.Dirty
		if !shared || dirtyHere {
			if a.MigrationOff {
				return
			}
			blk, ok := s.l2Invalidate(line, fromBank, set)
			if !ok {
				return
			}
			// Migration moves a whole block between banks: real data
			// traffic on the mesh (posted, but it loads the links).
			s.Mesh.Send(at, s.NodeOfBank(fromBank), s.NodeOfBank(b), noc.Data, s.Cfg.BlockBytes)
			ev := s.l2Insert(b, set, blk, cache.FlatLRU{})
			a.Migs++
			if ev.Valid {
				if _, dup := s.l2Find(ev.Block.Line, fromBank); dup {
					// The displaced line already has a copy in the source
					// bank; dropping this one loses nothing.
					s.dropEvicted(at, ev, b)
				} else {
					// Swap: the displaced block takes the way just freed
					// in the source bank (same set index bankset-wide).
					sev := s.l2Insert(fromBank, set, ev.Block, cache.FlatLRU{})
					s.dropEvicted(at, sev, fromBank)
				}
			}
			return
		}
		if a.ReplicationOff {
			return
		}
		// Unrestricted replication (paper §6.1): the copy may displace
		// first-class data — the latency gain costs L2 hit rate, which is
		// exactly the D-NUCA trade-off Figure 6 shows.
		ev := s.l2Insert(b, set, cache.Block{
			Valid: true, Line: line, Class: cache.Replica, Owner: c,
		}, cache.FlatLRU{})
		a.Reps++
		s.dropEvicted(at, ev, b)
		return
	}
}

// WriteBack implements System: L1 evictions go to the nearest bank of the
// bankset (clean ones too — D-NUCA keeps blocks in their bankset).
func (a *DNUCA) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	s := a.s
	col, set := a.column(line)
	banks := a.banksInColumn(col, c)
	near := banks[0]
	t := s.Mesh.Send(at, s.NodeOfCore(c), s.NodeOfBank(near), noc.Data, s.Cfg.BlockBytes)
	t = s.Bank[near].Access(t)
	s.Dir.L1Evict(line, c, true)
	resident := len(s.l2Has(line)) > 0
	if resident {
		if dirty {
			s.Dir.WriteBackDirty(line)
		}
		return
	}
	a.insertFar(t, set, banks, line, cache.Block{
		Valid: true, Line: line, Class: cache.Shared, Owner: -1, Dirty: dirty,
	})
	if dirty {
		s.Dir.WriteBackDirty(line)
	}
}

var _ System = (*DNUCA)(nil)
