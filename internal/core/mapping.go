// Package core implements the paper's primary contribution: the SP-NUCA /
// ESP-NUCA mechanisms. It contains the dual private/shared address
// interpretation (paper Figure 1b), the protected-LRU replacement policy
// with per-set helping-block budgets (paper §3.2), and the set-sampling
// controller that tunes the budget nmax on-line from EMA hit-rate
// estimates of reference, explorer and conventional sets (paper §3.3).
package core

import (
	"fmt"

	"espnuca/internal/cache"
	"espnuca/internal/mem"
)

// Mapping derives bank and set indices from a cache line under the two
// interpretations of Figure 1b. For a NUCA with 2^n banks, 2^p cores and
// 2^i sets per bank:
//
//	shared request:  bank = low n bits, index = next i bits
//	private request: bank = core's group base + low n-p bits,
//	                 index = next i bits
//
// The private tag is p bits longer; the tag array is sized for it (the
// paper's p-bits-per-line overhead), which in the simulator simply means
// both interpretations are exact.
type Mapping struct {
	banks, cores, setsPerBank int
	bankBits, coreBankBits    uint
	setBits                   uint
}

// NewMapping validates the geometry; banks, cores and setsPerBank must be
// powers of two with banks >= cores.
func NewMapping(banks, cores, setsPerBank int) (Mapping, error) {
	bb, ok := mem.Log2(banks)
	if !ok || banks <= 0 {
		return Mapping{}, fmt.Errorf("core: banks = %d is not a power of two", banks)
	}
	cb, ok := mem.Log2(cores)
	if !ok || cores <= 0 {
		return Mapping{}, fmt.Errorf("core: cores = %d is not a power of two", cores)
	}
	sb, ok := mem.Log2(setsPerBank)
	if !ok || setsPerBank <= 0 {
		return Mapping{}, fmt.Errorf("core: setsPerBank = %d is not a power of two", setsPerBank)
	}
	if banks < cores {
		return Mapping{}, fmt.Errorf("core: %d banks cannot serve %d cores", banks, cores)
	}
	return Mapping{
		banks: banks, cores: cores, setsPerBank: setsPerBank,
		bankBits: bb, coreBankBits: bb - cb, setBits: sb,
	}, nil
}

// Banks returns the total bank count (2^n).
func (m Mapping) Banks() int { return m.banks }

// Cores returns the core count (2^p).
func (m Mapping) Cores() int { return m.cores }

// BanksPerCore returns the private-group size (2^(n-p)).
func (m Mapping) BanksPerCore() int { return 1 << m.coreBankBits }

// SetsPerBank returns 2^i.
func (m Mapping) SetsPerBank() int { return m.setsPerBank }

// Shared returns the home bank and set index of line l under the shared
// interpretation.
func (m Mapping) Shared(l mem.Line) (bank, set int) {
	v := uint64(l)
	bank = int(v & uint64(m.banks-1))
	set = int((v >> m.bankBits) & uint64(m.setsPerBank-1))
	return bank, set
}

// Private returns the bank and set index of line l under the private
// interpretation for the given core.
func (m Mapping) Private(l mem.Line, core int) (bank, set int) {
	if core < 0 || core >= m.cores {
		panic(fmt.Sprintf("core: private mapping for core %d of %d", core, m.cores))
	}
	v := uint64(l)
	local := int(v & (1<<m.coreBankBits - 1))
	bank = core<<m.coreBankBits | local
	set = int((v >> m.coreBankBits) & uint64(m.setsPerBank-1))
	return bank, set
}

// CoreOfBank returns the core whose private group contains bank b.
func (m Mapping) CoreOfBank(b int) int {
	if b < 0 || b >= m.banks {
		panic(fmt.Sprintf("core: bank %d of %d", b, m.banks))
	}
	return b >> m.coreBankBits
}

// PrivateBanks returns the bank range [lo,hi) owned by core c.
func (m Mapping) PrivateBanks(c int) (lo, hi int) {
	g := m.BanksPerCore()
	return c * g, (c + 1) * g
}

// ExtraTagBits returns the tag widening the private interpretation costs
// (p bits per line, paper §2.1).
func (m Mapping) ExtraTagBits() uint {
	cb, _ := mem.Log2(m.cores)
	return cb
}

var _ = cache.Private // documented dependency: classes live in the cache package
