// Command esptrace inspects the synthetic workload streams: it prints a
// prefix of a core's instruction trace and summarizes the stream's
// memory behaviour (access mix, footprint, sharing), which is how the
// workload models were calibrated against the paper's descriptions.
//
// Usage:
//
//	esptrace -workload oltp -core 0 -n 20           # print 20 instructions
//	esptrace -workload oltp -summary -n 100000      # stream statistics
//	esptrace -workload oltp -record t.espt -n 50000 # record all 8 cores
//	esptrace -replay t.espt -arch esp-nuca          # simulate from a trace
//	esptrace -workload oltp -dinero t.din -n 20000  # export core 0 as ASCII
package main

import (
	"flag"
	"fmt"
	"os"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/experiment"
	"espnuca/internal/mem"
	"espnuca/internal/obs"
	"espnuca/internal/sim"
	"espnuca/internal/trace"
	"espnuca/internal/workload"
)

func main() {
	var (
		wlName   = flag.String("workload", "apache", "workload name")
		coreID   = flag.Int("core", 0, "core whose stream to inspect")
		n        = flag.Int("n", 0, "instructions to generate/replay (0: mode default)")
		seed     = flag.Uint64("seed", 1, "stream seed")
		summary  = flag.Bool("summary", false, "print statistics instead of the trace")
		record   = flag.String("record", "", "record all cores' streams to this binary trace file")
		dinero   = flag.String("dinero", "", "export the selected core's stream as a Dinero ASCII trace")
		replay   = flag.String("replay", "", "simulate from a recorded binary trace")
		archName = flag.String("arch", "esp-nuca", "architecture for -replay")
		metrics  = flag.String("metrics", "", "-replay: write interval metrics (JSONL) to this file")
		traceOut = flag.String("trace", "", "-replay: write Chrome trace_event JSON to this file")
		interval = flag.Uint64("interval", 0, "-replay: telemetry sampling interval in cycles (0 = default)")
	)
	flag.Parse()

	if *replay != "" {
		replayTrace(*replay, *archName, uint64(*n), *metrics, *traceOut, sim.Cycle(*interval))
		return
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

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esptrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		w, err := trace.NewWriter(f, 8)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esptrace:", err)
			os.Exit(1)
		}
		if err := trace.Record(w, bound, *n); err != nil {
			fmt.Fprintln(os.Stderr, "esptrace:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d instructions x 8 cores of %s to %s\n", *n, spec.Name, *record)
		return
	}

	if *dinero != "" {
		seq := make([]workload.Instr, *n)
		for i := range seq {
			seq[i] = st.Next()
		}
		g, _ := mem.NewGeometry(cfg.BlockBytes)
		f, err := os.Create(*dinero)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esptrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteDinero(f, seq, g); err != nil {
			fmt.Fprintln(os.Stderr, "esptrace:", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d instructions of %s core %d to %s\n", *n, spec.Name, *coreID, *dinero)
		return
	}

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

// replayTrace simulates a recorded trace on the given architecture. Each
// core retires n instructions (default: the trace length), replaying its
// recorded sequence and wrapping if the budget exceeds it. When metrics
// or traceOut are set the run is instrumented through the same
// experiment.Instrument path the harness uses, so the replayer emits the
// same per-bank/NoC/DRAM series as espmon and espsweep.
func replayTrace(path, archName string, n uint64, metrics, traceOut string, interval sim.Cycle) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esptrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	rep, err := trace.NewReplayer(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esptrace:", err)
		os.Exit(1)
	}
	cfg := arch.ScaledConfig()
	sys, err := arch.Build(archName, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esptrace:", err)
		os.Exit(1)
	}
	eng := sim.NewEngine()

	var reg *obs.Registry
	if metrics != "" || traceOut != "" {
		reg = obs.NewRegistry()
		if metrics != "" {
			mf, err := os.Create(metrics)
			if err != nil {
				fmt.Fprintln(os.Stderr, "esptrace:", err)
				os.Exit(1)
			}
			defer mf.Close()
			reg.AttachJSONL(mf)
		}
		if traceOut != "" {
			reg.EnableTrace()
		}
		experiment.Instrument(eng, sys, reg, interval)
	}

	cores := make([]*cpu.Core, rep.Cores())
	for c := range cores {
		target := n
		if target == 0 {
			target = uint64(rep.Len(c))
		}
		cores[c] = cpu.New(c, cpu.DefaultConfig(), eng, sys, rep.Source(c), target)
		cores[c].Start()
	}
	eng.RunUntil(0, func() bool {
		for _, c := range cores {
			if !c.Done {
				return false
			}
		}
		return true
	})
	var retired uint64
	var maxT sim.Cycle
	for _, c := range cores {
		retired += c.Retired()
		if c.Time() > maxT {
			maxT = c.Time()
		}
	}
	if reg != nil {
		reg.Tick(uint64(eng.Now()))
		reg.Trace().Complete("replay", "phase", 0, uint64(maxT), 0)
		if err := reg.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "esptrace:", err)
			os.Exit(1)
		}
		if traceOut != "" {
			tf, err := os.Create(traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "esptrace:", err)
				os.Exit(1)
			}
			werr := reg.Trace().WriteJSON(tf)
			if cerr := tf.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "esptrace:", werr)
				os.Exit(1)
			}
		}
	}
	sub := sys.Sub()
	fmt.Printf("replayed %s on %s: %d instructions in %d cycles (%.3f instr/cycle)\n",
		path, archName, retired, maxT, float64(retired)/float64(maxT))
	fmt.Printf("off-chip accesses %d, L2 lookups %d\n", sub.DRAM.Accesses(), l2Lookups(sub))
}

func l2Lookups(s *arch.Substrate) uint64 {
	var n uint64
	for _, b := range s.Bank {
		n += b.Stats.Lookups
	}
	return n
}
