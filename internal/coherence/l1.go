package coherence

import (
	"fmt"

	"espnuca/internal/cache"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// L1Config describes the private first-level caches (paper Table 2:
// split 32 KB I/D, 4-way, 64 B blocks, 3-cycle access, 1-cycle tag).
type L1Config struct {
	Bytes, Ways, BlockBytes int
	Latency, TagLatency     sim.Cycle
}

// DefaultL1Config returns the Table 2 L1.
func DefaultL1Config() L1Config {
	return L1Config{Bytes: 32 * 1024, Ways: 4, BlockBytes: 64, Latency: 3, TagLatency: 1}
}

// WriteBack describes a dirty line displaced from an L1.
type WriteBack struct {
	Line  mem.Line
	Dirty bool
	Valid bool
}

// L1s owns every core's split L1 caches plus the per-core MSHR resources,
// and applies coherence actions (invalidations on remote writes). The L2
// architectures reach into it to invalidate or downgrade lines.
type L1s struct {
	cfg   L1Config
	data  []*cache.Bank
	instr []*cache.Bank
	dir   *Directory
	sets  int

	// Hits/misses per kind, aggregated over all cores.
	dataHits, dataMisses, instrHits, instrMisses uint64
}

// NewL1s builds per-core L1 pairs for n cores.
func NewL1s(n int, cfg L1Config, dir *Directory) (*L1s, error) {
	if cfg.Bytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("coherence: invalid L1 config %+v", cfg)
	}
	lines := cfg.Bytes / cfg.BlockBytes
	sets := lines / cfg.Ways
	if sets <= 0 {
		return nil, fmt.Errorf("coherence: L1 of %d bytes has no sets", cfg.Bytes)
	}
	l := &L1s{cfg: cfg, dir: dir, sets: sets}
	for i := 0; i < n; i++ {
		mk := func() (*cache.Bank, error) {
			return cache.NewBank(cache.Config{
				Sets: sets, Ways: cfg.Ways,
				Latency: cfg.Latency, TagLatency: cfg.TagLatency,
			})
		}
		d, err := mk()
		if err != nil {
			return nil, err
		}
		ib, err := mk()
		if err != nil {
			return nil, err
		}
		l.data = append(l.data, d)
		l.instr = append(l.instr, ib)
	}
	return l, nil
}

// Reset empties every core's L1s and zeroes the hit and miss counters,
// as NewL1s built them.
func (l *L1s) Reset() {
	for c := range l.data {
		l.data[c].Reset()
		l.instr[c].Reset()
	}
	l.dataHits, l.dataMisses, l.instrHits, l.instrMisses = 0, 0, 0, 0
}

// Totals returns the hit/miss counters summed over all cores.
func (l *L1s) Totals() (dataHits, dataMisses, instrHits, instrMisses uint64) {
	return l.dataHits, l.dataMisses, l.instrHits, l.instrMisses
}

// HitMissTotals returns the combined (I+D) hit and miss totals.
func (l *L1s) HitMissTotals() (hits, misses uint64) {
	dh, dm, ih, im := l.Totals()
	return dh + ih, dm + im
}

// Config returns the L1 configuration.
func (l *L1s) Config() L1Config { return l.cfg }

func (l *L1s) setOf(line mem.Line) int { return int(uint64(line) % uint64(l.sets)) }

func (l *L1s) bank(c int, ifetch bool) *cache.Bank {
	if ifetch {
		return l.instr[c]
	}
	return l.data[c]
}

// Lookup probes core c's L1 (I or D). On a hit it returns true and, for a
// write, marks the line dirty; writes additionally require that c holds
// all tokens (write hit on a shared line is an upgrade miss).
func (l *L1s) Lookup(c int, line mem.Line, write, ifetch bool) bool {
	b := l.bank(c, ifetch)
	set := l.setOf(line)
	blk := b.Lookup(set, cache.LineQuery(line))
	hit := blk != nil
	if hit && write {
		// Upgrade check: a write needs every token. Peek rather than
		// State: a line whose state was never materialized holds all its
		// tokens at memory (zero in any L1), which fails the check the
		// same way, so the read need not materialize it.
		if st := l.dir.PeekLine(line); st == nil || st.L1Tokens[c] != TokensPerLine {
			hit = false
		} else {
			blk.Dirty = true
		}
	}
	if ifetch {
		if hit {
			l.instrHits++
		} else {
			l.instrMisses++
		}
	} else {
		if hit {
			l.dataHits++
		} else {
			l.dataMisses++
		}
	}
	return hit
}

// Fill installs the line into core c's L1 after a miss is satisfied and
// returns the displaced dirty line, if any. Token movement (GrantReadL1 /
// GrantWriteL1) is the caller's job: the architecture decides where the
// tokens come from before calling Fill.
func (l *L1s) Fill(c int, line mem.Line, write, ifetch bool) WriteBack {
	b := l.bank(c, ifetch)
	set := l.setOf(line)
	if blk := b.Peek(set, cache.LineQuery(line)); blk != nil {
		// Already present (upgrade): just set dirty.
		if write {
			blk.Dirty = true
		}
		return WriteBack{}
	}
	ev := b.Insert(set, cache.Block{
		Valid: true, Line: line, Class: cache.Private, Owner: int8(c), Dirty: write,
	}, cache.FlatLRU{})
	if !ev.Valid {
		return WriteBack{}
	}
	// The displaced line's tokens leave this L1; the architecture routes
	// the write-back (to L2 or memory), so only report it here.
	return WriteBack{Line: ev.Block.Line, Dirty: ev.Block.Dirty, Valid: true}
}

// Invalidate removes the line from core c's L1 (both arrays; a line can
// only be in one, but code/data aliasing is legal) and returns whether a
// dirty copy was dropped.
func (l *L1s) Invalidate(c int, line mem.Line) (dirty bool) {
	set := l.setOf(line)
	if old, ok := l.data[c].Invalidate(set, cache.LineQuery(line)); ok && old.Dirty {
		dirty = true
	}
	if old, ok := l.instr[c].Invalidate(set, cache.LineQuery(line)); ok && old.Dirty {
		dirty = true
	}
	return dirty
}

// Has reports whether core c's L1 holds the line (either array), without
// touching LRU state.
func (l *L1s) Has(c int, line mem.Line) bool {
	set := l.setOf(line)
	return l.data[c].Peek(set, cache.LineQuery(line)) != nil ||
		l.instr[c].Peek(set, cache.LineQuery(line)) != nil
}

// Access claims core c's L1 port for timing and returns the completion
// cycle of the array access.
func (l *L1s) Access(at sim.Cycle, c int, ifetch bool) sim.Cycle {
	return l.bank(c, ifetch).Access(at)
}

// Cores returns the number of cores.
func (l *L1s) Cores() int { return len(l.data) }
