// Tracedriven: records a workload's instruction streams into the binary
// trace format, then replays the trace against two architectures — the
// workflow for comparing organizations on a fixed, recorded trace.
package main

import (
	"bytes"
	"fmt"
	"log"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/sim"
	"espnuca/internal/trace"
	"espnuca/internal/workload"
)

const instructions = 60_000

func main() {
	// 1. Record: capture the oltp streams once.
	spec, ok := workload.ByName("oltp")
	if !ok {
		log.Fatal("oltp missing from catalog")
	}
	cfg := arch.ScaledConfig()
	bound := spec.Bind(cfg.L2Lines(), cfg.L1ILines(), 1)

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, 8)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Record(w, bound, instructions); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d instructions x 8 cores (%d bytes)\n\n",
		instructions, buf.Len())

	// 2. Replay the identical reference stream on two architectures.
	recorded := buf.Bytes()
	for _, name := range []string{"shared", "esp-nuca"} {
		rep, err := trace.NewReplayer(bytes.NewReader(recorded))
		if err != nil {
			log.Fatal(err)
		}
		sys, err := arch.Build(name, cfg)
		if err != nil {
			log.Fatal(err)
		}
		eng := sim.NewEngine()
		cores := make([]*cpu.Core, 8)
		for c := 0; c < 8; c++ {
			cores[c] = cpu.New(c, cpu.DefaultConfig(), eng, sys, rep.Source(c), instructions)
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
		var maxT sim.Cycle
		for _, c := range cores {
			if c.Time() > maxT {
				maxT = c.Time()
			}
		}
		sub := sys.Sub()
		fmt.Printf("%-9s  %8d cycles  %.3f instr/cycle  %6d off-chip\n",
			name, maxT, float64(8*instructions)/float64(maxT), sub.DRAM.Accesses())
	}
	fmt.Println("\nBoth runs consumed bit-identical reference streams: any")
	fmt.Println("difference is purely the L2 organization.")
}
