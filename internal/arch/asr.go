package arch

import (
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// ASR is Adaptive Selective Replication (Beckmann et al.): the private
// Tiled organization plus controlled replication of remotely-served
// shared data into the local tile. Each core adapts its replication
// probability over a discrete set of levels once per epoch. Beckmann et
// al. weigh the benefit of replication (remote-hit latency saved by local
// replica hits) against its cost (extra off-chip misses caused by the
// capacity replicas take); this model estimates the benefit only, so a
// core's level only ever rises (see README.md, Fidelity notes).
type ASR struct {
	t *Tiled

	levels []float64
	level  []int // per core index into levels

	// Per-core epoch counters.
	replicaHits []uint64
	epochEvents []uint64

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
	a.epochEvents = make([]uint64, n)
	for c := 0; c < n; c++ {
		a.level[c] = 2 // start at 0.5
	}
	t.asr = a
	return a, nil
}

// Name implements System.
func (a *ASR) Name() string { return "asr" }

// Sub implements System.
func (a *ASR) Sub() *Substrate { return a.t.s }

func (a *ASR) shouldReplicate(c int) bool {
	return a.t.s.RNG.Bool(a.levels[a.level[c]])
}

// Access implements System, counting the benefit of replication over
// the Tiled access path: every local L2 hit counts as a replica hit.
func (a *ASR) Access(at sim.Cycle, c int, line mem.Line, write bool) Result {
	res := a.t.Access(at, c, line, write)
	if res.Level == LocalL2 {
		a.replicaHits[c]++
	}
	a.epochEvents[c]++
	if a.epochEvents[c] >= a.epoch {
		a.adapt(c)
	}
	return res
}

// adapt raises core c's replication level after an epoch with any
// replica hit, and resets the epoch.
func (a *ASR) adapt(c int) {
	if a.replicaHits[c] > 0 && a.level[c] < len(a.levels)-1 {
		a.level[c]++
		a.LevelChanges++
	}
	a.replicaHits[c] = 0
	a.epochEvents[c] = 0
}

// WriteBack implements System with the Tiled write-back path.
func (a *ASR) WriteBack(at sim.Cycle, c int, line mem.Line, dirty bool) {
	a.t.WriteBack(at, c, line, dirty)
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
