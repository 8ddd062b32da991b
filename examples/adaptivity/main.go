// Adaptivity: paper Figure 3's mechanism in isolation. Drives one
// ESP-NUCA bank (protected LRU + set sampling) through two program
// phases — a small working set where helping blocks are harmless, then a
// high-utility phase where they hurt — and prints how the bank's nmax
// budget and the three EMA hit-rate estimators (conventional, reference,
// explorer) respond.
package main

import (
	"fmt"

	"espnuca/internal/arch"
	"espnuca/internal/cache"
	"espnuca/internal/core"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

const (
	sets = 64
	ways = 16
)

func main() {
	sys := arch.DefaultConfig()
	bank, err := cache.NewBank(cache.Config{Sets: sets, Ways: ways, Latency: sys.BankLatency, TagLatency: sys.TagLatency})
	if err != nil {
		panic(err)
	}
	cfg := core.DefaultSamplerConfig()
	core.AssignRoles(bank, cfg)
	sampler := core.NewSampler(cfg, ways)
	policy := core.ProtectedLRU{S: sampler}
	rng := sim.NewRNG(42)

	// access performs one first-class lookup (filling on miss) and feeds
	// the sampler; helping pressure is injected separately.
	access := func(line mem.Line) {
		set := int(uint64(line) % sets)
		blk := bank.Lookup(set, cache.ClassQuery(line, cache.Private, cache.Shared))
		if s := bank.Set(set); s.Sampled {
			sampler.Observe(s.Role, blk != nil)
		}
		if blk == nil {
			bank.Insert(set, cache.Block{Valid: true, Line: line, Class: cache.Private, Owner: 0}, policy)
		}
	}
	helping := func(line mem.Line) {
		set := int(uint64(line) % sets)
		if bank.Peek(set, cache.ClassQuery(line, cache.Replica)) != nil {
			return
		}
		bank.Insert(set, cache.Block{Valid: true, Line: line, Class: cache.Replica, Owner: 1}, policy)
	}

	report := func(phase string, step int) {
		hrc, hrr, hre := sampler.Rates()
		fmt.Printf("%-24s step %5d  nmax=%2d  HRC=%.2f HRR=%.2f HRE=%.2f (raises %d, lowers %d)\n",
			phase, step, sampler.NMax(), hrc, hrr, hre, sampler.Raises, sampler.Lowers)
	}

	// Phase 1: small working set (fits in 4 of 16 ways). Helping blocks
	// cost nothing, so the explorer sets stay healthy and nmax climbs.
	fmt.Println("phase 1: small working set + helping-block pressure")
	for step := 0; step < 30000; step++ {
		access(mem.Line(rng.Intn(4 * sets))) // ~4 ways per set
		if step%2 == 0 {
			helping(mem.Line(100000 + rng.Intn(8*sets)))
		}
		if step%6000 == 5999 {
			report("  small working set", step+1)
		}
	}

	// Phase 2: high utility — the first-class working set needs every
	// way, so conventional sets degrade against the reference sets and
	// nmax falls back toward zero.
	fmt.Println("phase 2: high-utility working set (needs all ways)")
	for step := 0; step < 60000; step++ {
		access(mem.Line(rng.Intn(15 * sets))) // ~15 ways per set
		if step%2 == 0 {
			helping(mem.Line(200000 + rng.Intn(8*sets)))
		}
		if step%12000 == 11999 {
			report("  high utility", step+1)
		}
	}

	fmt.Println("\nThe budget rises while helping blocks are free and collapses when")
	fmt.Println("first-class hit rate is at stake - paper Figure 3's two regimes.")
}
