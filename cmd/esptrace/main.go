// Command esptrace inspects the synthetic workload streams: it prints a
// prefix of a core's instruction trace and summarizes the stream's
// memory behaviour (access mix, footprint, sharing), which is how the
// workload models were calibrated against the paper's descriptions.
//
// Usage:
//
//	esptrace -workload oltp -core 0 -n 20           # print 20 instructions
//	esptrace -workload oltp -summary -n 100000      # stream statistics
package main

import (
	"flag"
	"fmt"
	"os"

	"espnuca/internal/arch"
	"espnuca/internal/mem"
	"espnuca/internal/workload"
)

func main() {
	var (
		wlName  = flag.String("workload", "apache", "workload name")
		coreID  = flag.Int("core", 0, "core whose stream to inspect")
		n       = flag.Int("n", 0, "instructions to generate (0 means 20)")
		seed    = flag.Uint64("seed", 1, "stream seed")
		summary = flag.Bool("summary", false, "print statistics instead of the trace")
	)
	flag.Parse()

	if *n < 0 {
		fmt.Fprintf(os.Stderr, "esptrace: -n must not be negative, got %d\n", *n)
		os.Exit(1)
	}
	if *n == 0 {
		*n = 20
	}

	spec, ok := workload.ByName(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "esptrace: unknown workload %q\n", *wlName)
		os.Exit(1)
	}
	if *coreID < 0 || *coreID >= mem.MaxCores {
		fmt.Fprintf(os.Stderr, "esptrace: core must be 0-%d\n", mem.MaxCores-1)
		os.Exit(1)
	}
	cfg := arch.ScaledConfig()
	bound := spec.Bind(cfg.L2Lines(), cfg.L1ILines(), *seed)
	st := bound.Streams[*coreID]

	if !*summary {
		fmt.Printf("# %s core %d (%s), seed %d\n", spec.Name, *coreID, st.Profile().Name, *seed)
		for i := 0; i < *n; i++ {
			in := st.Next()
			line := fmt.Sprintf("%6d", i)
			if in.HasFetch {
				line += fmt.Sprintf("  fetch %#010x", uint64(in.Fetch))
			} else {
				line += "                    "
			}
			if in.IsMem {
				op := "load "
				if in.Write {
					op = "store"
				}
				line += fmt.Sprintf("  %s %#010x", op, uint64(in.Data))
			}
			fmt.Println(line)
		}
		return
	}

	sum := workload.SummarizeStream(st, *n)
	fmt.Printf("workload        %s (%s), core %d, %d instructions\n", spec.Name, spec.Kind, *coreID, sum.Instructions)
	fmt.Printf("profile         %s\n", st.Profile().Name)
	fmt.Printf("memory ops      %d (%.1f%% of instructions)\n", sum.MemOps, 100*float64(sum.MemOps)/float64(sum.Instructions))
	fmt.Printf("stores          %d (%.1f%% of memory ops)\n", sum.Writes, pct(sum.Writes, sum.MemOps))
	fmt.Printf("fetch events    %d (%.1f%% of instructions)\n", sum.Fetches, 100*float64(sum.Fetches)/float64(sum.Instructions))
	fmt.Printf("data footprint  %d lines (%d KB)\n", sum.DataLines, sum.DataLines*64/1024)
	fmt.Printf("code footprint  %d lines (%d KB)\n", sum.CodeLines, sum.CodeLines*64/1024)
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
