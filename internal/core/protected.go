package core

import (
	"espnuca/internal/cache"
	"espnuca/internal/stats"
)

// SamplerConfig holds the protected-LRU tuning constants of paper §3.3;
// DefaultSamplerConfig returns the values chosen there after the
// sensitivity sweep (§5.2).
type SamplerConfig struct {
	// A is the EMA smoothing shift (alpha = 2^-A; A=1 corresponds to the
	// paper's N=3-sample moving average).
	A uint
	// B is the EMA register width in bits.
	B uint
	// D is the accepted first-class hit-rate degradation shift: the
	// threshold is a fraction 2^-D (D=3 -> 12.5%, i.e. explorer sets must
	// stay above 87.5% of the reference hit rate).
	D uint
	// Period is the number of sampled-set references between nmax
	// re-evaluations.
	Period int
	// ConventionalSets, ReferenceSets, ExplorerSets are the number of
	// sampled sets per bank feeding each estimator.
	ConventionalSets, ReferenceSets, ExplorerSets int
}

// DefaultSamplerConfig is the paper's configuration: b=8, N=3 (a=1), d=3,
// two conventional + one reference + one explorer sampled sets.
func DefaultSamplerConfig() SamplerConfig {
	return SamplerConfig{A: 1, B: 8, D: 3, Period: 64,
		ConventionalSets: 2, ReferenceSets: 1, ExplorerSets: 1}
}

// Sampler is the per-bank controller deciding the helping-block budget
// nmax. It owns the three EMA estimators (HRC, HRR, HRE) and applies the
// update rule of paper eq. (3).
type Sampler struct {
	cfg  SamplerConfig
	hrc  *stats.EMA // conventional sets, first-class hit rate
	hrr  *stats.EMA // reference sets
	hre  *stats.EMA // explorer sets
	nmax int
	ways int

	events int

	// Raises and Lowers count nmax adjustments, for adaptivity studies.
	Raises, Lowers uint64
}

// NewSampler builds the controller for a bank of the given associativity
// from cfg as given (arch.Config.Validate refuses a zero period).
func NewSampler(cfg SamplerConfig, ways int) *Sampler {
	return &Sampler{
		cfg:  cfg,
		hrc:  stats.NewEMA(cfg.A, cfg.B),
		hrr:  stats.NewEMA(cfg.A, cfg.B),
		hre:  stats.NewEMA(cfg.A, cfg.B),
		nmax: 0,
		ways: ways,
	}
}

// NMax returns the current helping-block budget for conventional sets.
func (s *Sampler) NMax() int { return s.nmax }

// SetNMax overrides the budget (tests, static configurations).
func (s *Sampler) SetNMax(n int) { s.nmax = s.clamp(n) }

func (s *Sampler) clamp(n int) int {
	if n < 0 {
		return 0
	}
	// Leave at least one way for first-class blocks; the explorer limit
	// nmax+1 may still reach ways-1+1 = ways? No: explorer also keeps one.
	if n > s.ways-2 {
		return s.ways - 2
	}
	return n
}

// LimitFor returns the helping-block cap for a set with the given role.
func (s *Sampler) LimitFor(role cache.SetRole) int {
	switch role {
	case cache.Reference:
		return 0
	case cache.Explorer:
		return s.nmax + 1
	default:
		return s.nmax
	}
}

// Observe records one reference to a sampled set: its role and whether the
// access hit a first-class block (h=1) or anything else happened (h=0).
// Every cfg.Period sampled references the nmax update rule runs.
func (s *Sampler) Observe(role cache.SetRole, firstClassHit bool) {
	switch role {
	case cache.Reference:
		s.hrr.Observe(firstClassHit)
	case cache.Explorer:
		s.hre.Observe(firstClassHit)
	default:
		s.hrc.Observe(firstClassHit)
	}
	s.events++
	if s.events >= s.cfg.Period {
		s.events = 0
		s.update()
	}
}

// update applies eq. (3): lower nmax when conventional sets degraded below
// the threshold fraction of the reference hit rate; raise it when even the
// explorer sets (one extra helping block) are not degraded.
func (s *Sampler) update() {
	switch {
	case s.hrr.DegradedBelow(s.hrc, s.cfg.D):
		if n := s.clamp(s.nmax - 1); n != s.nmax {
			s.nmax = n
			s.Lowers++
		}
	case !s.hrr.DegradedBelow(s.hre, s.cfg.D):
		if n := s.clamp(s.nmax + 1); n != s.nmax {
			s.nmax = n
			s.Raises++
		}
	}
}

// Rates exposes the three estimates (normalized to [0,1]) for the
// adaptivity example and tests.
func (s *Sampler) Rates() (hrc, hrr, hre float64) {
	return s.hrc.Rate(), s.hrr.Rate(), s.hre.Rate()
}

// StorageBits returns the controller's hardware bookkeeping cost in bits
// for a bank with the given number of sets: log2(w) per set for the n
// counters, log2(w) for nmax, and 3*b for the estimators (paper §5.2).
func (s *Sampler) StorageBits(sets int) int {
	wBits, _ := log2ceil(s.ways)
	return sets*wBits + wBits + int(3*s.cfg.B)
}

func log2ceil(v int) (int, bool) {
	b := 0
	for 1<<b < v {
		b++
	}
	return b, 1<<b == v
}

// ProtectedLRU is the ESP-NUCA replacement policy (paper §3.2). Victim
// selection depends on the set's helping-block count n and its role's cap:
//
//	n <  cap: evict the LRU block of the whole set
//	n >= cap: evict the LRU block among helping blocks
//
// Reference sets have cap 0 and therefore refuse helping blocks entirely;
// explorer sets use cap nmax+1.
type ProtectedLRU struct {
	S *Sampler
}

// PickVictim implements cache.Policy.
func (p ProtectedLRU) PickVictim(b *cache.Bank, setIdx int, incoming cache.Class) int {
	set := b.Set(setIdx)
	limit := p.S.LimitFor(set.Role)
	if set.HelpCount >= limit {
		if w := b.LRUWay(setIdx, cache.HelpingMask); w >= 0 {
			return w
		}
		// No helping block to displace. A first-class block falls back to
		// plain LRU; a helping block is refused (the cap is zero).
		if incoming.Helping() {
			return -1
		}
	}
	return b.LRUWay(setIdx, cache.AnyClass)
}

// AssignRoles marks the sampled sets of a bank: the requested number of
// reference, explorer and conventional-sampled sets, spread across the
// index space so that set-index locality does not bias the estimators.
// The remaining sets are plain conventional sets.
func AssignRoles(b *cache.Bank, cfg SamplerConfig) {
	n := b.Sets()
	total := cfg.ReferenceSets + cfg.ExplorerSets + cfg.ConventionalSets
	if total <= 0 || total > n {
		return
	}
	// Stride the sampled sets evenly, starting away from set 0 (which
	// often carries pathological traffic in synthetic streams).
	stride := n / total
	idx := stride / 2
	place := func(role cache.SetRole, count int) {
		for i := 0; i < count; i++ {
			s := b.Set(idx % n)
			s.Role = role
			s.Sampled = true
			idx += stride
		}
	}
	place(cache.Reference, cfg.ReferenceSets)
	place(cache.Explorer, cfg.ExplorerSets)
	place(cache.Conventional, cfg.ConventionalSets)
}
