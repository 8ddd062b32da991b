// Command espsim runs one (architecture x workload) simulation and
// prints its metrics: performance, the Figure 6 access-time
// decomposition, and off-chip behaviour.
//
// Usage:
//
//	espsim -arch esp-nuca -workload apache [-seed 1] [-instructions 40000]
//	espsim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"espnuca"
	"espnuca/internal/arch"
	"espnuca/internal/experiment"
)

func main() {
	def := experiment.DefaultRunConfig("", "")
	var (
		archName = flag.String("arch", "esp-nuca", "architecture (see -list)")
		wlName   = flag.String("workload", "apache", "workload (see -list)")
		seed     = flag.Uint64("seed", def.Seed, "perturbation seed")
		warmup   = flag.Uint64("warmup", def.Warmup, "per-core warmup instructions")
		instrs   = flag.Uint64("instructions", def.Instructions, "per-core measured instructions")
		full     = flag.Bool("full", false, "simulate the full Table 2 machine (8 MB L2)")
		check    = flag.Bool("check", false, "verify token conservation per transaction")
		list     = flag.Bool("list", false, "list architectures and workloads")
	)
	flag.Parse()

	if *list {
		fmt.Println("architectures:")
		for _, a := range espnuca.Architectures() {
			fmt.Printf("  %s\n", a)
		}
		fmt.Println("workloads:")
		for _, w := range espnuca.Workloads() {
			fmt.Printf("  %s\n", w)
		}
		return
	}

	rep, err := espnuca.Run(espnuca.Options{
		Architecture: *archName,
		Workload:     *wlName,
		Seed:         *seed,
		Warmup:       *warmup,
		Instructions: *instrs,
		FullSize:     *full,
		CheckTokens:  *check,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "espsim:", err)
		os.Exit(1)
	}

	fmt.Printf("architecture     %s\n", rep.Arch)
	fmt.Printf("workload         %s (seed %d)\n", rep.Workload, rep.Seed)
	fmt.Printf("measured cycles  %d\n", rep.Cycles)
	fmt.Printf("retired instrs   %d\n", rep.Retired)
	fmt.Printf("throughput       %.4f instr/cycle (aggregate)\n", rep.Throughput)
	fmt.Printf("mean IPC         %.4f per core\n", rep.MeanIPC)
	fmt.Printf("L1 miss rate     %.2f%%\n", rep.L1MissRate*100)
	fmt.Printf("off-chip accesses %d\n", rep.OffChipAccesses)
	fmt.Printf("on-chip L2 latency %.1f cycles\n", rep.OnChipLatency)
	fmt.Printf("avg access time  %.2f cycles, decomposed:\n", rep.AvgAccessTime)
	for l := arch.Level(0); l < arch.NumLevels; l++ {
		fmt.Printf("  %-9s %6.2f\n", l, rep.Decomposition[l])
	}
}
