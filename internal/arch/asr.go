package arch

import (
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// ASR is Adaptive Selective Replication (Beckmann et al.): the private
// Tiled organization plus controlled replication of remotely-served
// shared data into the local tile. Each core adapts its replication
// probability over a discrete set of levels by comparing, per epoch, the
// estimated benefit of replication (remote-hit latency saved by local
// replica hits) against its cost (extra off-chip misses attributed to
// capacity consumed by replicas, estimated from recently-evicted tags).
type ASR struct {
	t *Tiled

	levels []float64
	level  []int // per core index into levels

	// Per-core epoch counters.
	replicaHits []uint64
	victimHits  []uint64 // misses that hit the recently-evicted filter
	epochEvents []uint64

	// recently-evicted tag filter per core (cost estimator).
	evicted []map[mem.Line]struct{}

	epoch uint64

	// LevelChanges counts adaptation steps (observability).
	LevelChanges uint64
}

// NewASR builds the ASR architecture.
func NewASR(cfg Config) (*ASR, error) {
	t, err := NewTiled(cfg)
	if err != nil {
		return nil, err
	}
	a := &ASR{
		t:      t,
		levels: []float64{0, 0.25, 0.5, 0.75, 1},
		epoch:  4096,
	}
	n := cfg.Cores
	a.level = make([]int, n)
	a.replicaHits = make([]uint64, n)
	a.victimHits = make([]uint64, n)
	a.epochEvents = make([]uint64, n)
	a.evicted = make([]map[mem.Line]struct{}, n)
	for c := 0; c < n; c++ {
		a.level[c] = 2 // start at 0.5
		a.evicted[c] = make(map[mem.Line]struct{})
	}
	t.replicate = a.shouldReplicate
	return a, nil
}

// Name implements System.
func (a *ASR) Name() string { return "asr" }

// Sub implements System.
func (a *ASR) Sub() *Substrate { return a.t.s }

func (a *ASR) shouldReplicate(c int) bool {
	return a.t.s.RNG.Bool(a.levels[a.level[c]])
}

// Access implements System, layering the benefit/cost bookkeeping over
// the Tiled access path.
func (a *ASR) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	s := a.t.s
	// Benefit estimation: a local L2 hit on a line this core replicated
	// earlier would have been a remote hit without ASR. We approximate by
	// observing local hits in general vs the eviction filter.
	bank, set := s.Map.Private(line, c)
	_ = set
	res := a.t.Access(at, c, line, write)

	switch res.Level {
	case LocalL2:
		if _, ok := a.evicted[c][line]; !ok {
			// Count only lines that plausibly exist because of
			// replication (the line's home tile is another core's).
			if s.Map.CoreOfBank(bank) == c {
				a.replicaHits[c]++
			}
		}
	case OffChip:
		if _, ok := a.evicted[c][line]; ok {
			a.victimHits[c]++ // would have hit without replica pressure
			delete(a.evicted[c], line)
		}
	}

	a.epochEvents[c]++
	if a.epochEvents[c] >= a.epoch {
		a.adapt(c)
	}
	return res
}

// adapt moves core c's replication level toward the side with the better
// benefit/cost balance and resets the epoch.
func (a *ASR) adapt(c int) {
	// Remote hit costs ~2 extra hops (~10 cycles) vs a local hit; an
	// off-chip miss costs ~memory latency (~300). The standard ASR
	// comparison weighs the two.
	benefit := float64(a.replicaHits[c]) * 10
	cost := float64(a.victimHits[c]) * 300
	old := a.level[c]
	if benefit > cost*1.2 && a.level[c] < len(a.levels)-1 {
		a.level[c]++
	} else if cost > benefit*1.2 && a.level[c] > 0 {
		a.level[c]--
	}
	if a.level[c] != old {
		a.LevelChanges++
	}
	a.replicaHits[c] = 0
	a.victimHits[c] = 0
	a.epochEvents[c] = 0
	// Keep the filter bounded.
	if len(a.evicted[c]) > 1<<14 {
		a.evicted[c] = make(map[mem.Line]struct{})
	}
}

// WriteBack implements System; evictions feed the cost filter.
func (a *ASR) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	a.t.WriteBack(at, c, line, dirty)
}

// NoteEviction records an L2 eviction in core c's cost filter. The Tiled
// base calls dropEvicted internally, so ASR approximates by snooping its
// own L1 write-back victims; the filter needs only a recency signal.
func (a *ASR) NoteEviction(c int, line mem.Line) {
	a.evicted[c][line] = struct{}{}
}

// Levels returns each core's current replication probability.
func (a *ASR) Levels() []float64 {
	out := make([]float64, len(a.level))
	for c, l := range a.level {
		out[c] = a.levels[l]
	}
	return out
}

var _ System = (*ASR)(nil)
