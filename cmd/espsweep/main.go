// Command espsweep regenerates the paper's tables and figures.
//
// Usage:
//
//	espsweep -figure 8            # one evaluation figure (4-10)
//	espsweep -table 1             # the workload catalog
//	espsweep -table 2 -csv        # the machine, full and scaled, as CSV
//	espsweep -all                 # every figure from one run set, full quality
//	espsweep -figure 8 -quick     # one seed, short quantum
//	espsweep -sweep params        # S5.2 sensitivity sweep (a, b, d, N)
//	espsweep -stability           # S6 cross-suite variance comparison (Figures 8-10's runs)
//	espsweep -all -parallel 8     # bound the worker pool (0 = all cores)
//	espsweep -figure 8 -cpuprofile cpu.pprof -memprofile mem.pprof
//	espsweep -figure 8 -quick -metrics-dir obs -trace   # per-run telemetry
//	espsweep -all -cache-dir ~/.cache/espnuca           # memoize runs on disk
//	espsweep -figure 8 -exectrace exec.trace            # runtime execution trace
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"time"

	"espnuca/internal/core"
	"espnuca/internal/experiment"
	"espnuca/internal/resultcache"
	"espnuca/internal/sim"
)

// progress returns a `\r<done>/<total>` printer that closes with the
// elapsed time and one newline, so the tables start on a fresh line.
// Matrix.Run serializes its calls and done only moves forward.
func progress() func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
		if done == total {
			fmt.Fprintf(os.Stderr, " in %.1fs\n", time.Since(start).Seconds())
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "espsweep:", err)
	os.Exit(1)
}

func main() {
	var (
		figure   = flag.Int("figure", 0, "figure to regenerate (4-10)")
		table    = flag.Int("table", 0, "table to print (1 or 2)")
		all      = flag.Bool("all", false, "regenerate every figure")
		quick    = flag.Bool("quick", false, "single seed, short quantum")
		csv      = flag.Bool("csv", false, "emit comma-separated values instead of text tables")
		sweep    = flag.String("sweep", "", "'params': the S5.2 protected-LRU constants sensitivity sweep")
		stab     = flag.Bool("stability", false, "print the S6 performance-variance comparison")
		instrs   = flag.Uint64("instructions", 0, "override measured quantum")
		seeds    = flag.Int("seeds", 0, "override the number of perturbation seeds")
		parallel = flag.Int("parallel", 0, "worker pool size for independent runs (0 = all cores, 1 = serial)")
		metrics  = flag.String("metrics-dir", "", "write per-run interval metrics (JSONL) into this directory")
		traceEv  = flag.Bool("trace", false, "also write per-run Chrome trace JSON (needs -metrics-dir)")
		obsIval  = flag.Uint64("obs-interval", 0, "telemetry sampling interval in cycles (0 = default)")
		cacheDir = flag.String("cache-dir", "", "memoize simulations in a content-addressed result cache at this directory")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		execTr   = flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTr != "" {
		f, err := os.Create(*execTr)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fail(err)
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *traceEv && *metrics == "" {
		fail(fmt.Errorf("-trace requires -metrics-dir"))
	}
	o := experiment.DefaultOptions()
	if *quick {
		o = experiment.QuickOptions()
	}
	if *seeds > 0 {
		o.Seeds = nil
		for i := 0; i < *seeds; i++ {
			o.Seeds = append(o.Seeds, uint64(i+1))
		}
	}
	if *instrs > 0 {
		o.Instructions = *instrs
	}
	o.Parallelism = *parallel
	o.Progress = progress()
	if *metrics != "" {
		o.Obs = &experiment.ObsSpec{Dir: *metrics, Interval: sim.Cycle(*obsIval), Trace: *traceEv}
	}
	o.RunFunc = cachedRunner(*cacheDir)

	show := func(tab experiment.Table) {
		if *csv {
			fmt.Print(tab.CSV())
			return
		}
		fmt.Println(tab)
	}
	evaluate := func(names ...string) {
		tabs, err := experiment.Evaluate(names, o)
		if err != nil {
			fail(err)
		}
		for _, tab := range tabs {
			show(tab)
		}
	}

	switch {
	case *stab:
		evaluate("stability")
	case *sweep == "params":
		sweepParams(*quick, *parallel, o.RunFunc)
	case *sweep != "":
		fail(fmt.Errorf("unknown -sweep %q (the only sweep is 'params')", *sweep))
	case *all:
		evaluate("4", "5", "6", "7", "8", "9", "10")
	case *figure != 0:
		evaluate(strconv.Itoa(*figure))
	case *table == 1:
		show(experiment.Table1())
	case *table == 2:
		show(experiment.Table2())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// cachedRunner opens the content-addressed result cache when dir is
// non-empty and returns a memoizing run function (nil when uncached).
func cachedRunner(dir string) func(experiment.RunConfig) (experiment.RunResult, error) {
	if dir == "" {
		return nil
	}
	store, err := resultcache.Open(dir, resultcache.Options{})
	if err != nil {
		fail(err)
	}
	return store.Runner()
}

// sweepParams reruns a transactional and a NAS workload with varied
// protected-LRU constants (paper S5.2's sensitivity analysis). The whole
// workload x variant grid runs as one parallel batch; results print in
// grid order afterwards.
func sweepParams(quick bool, parallel int, run func(experiment.RunConfig) (experiment.RunResult, error)) {
	workloads := []string{"apache", "CG"}
	instrs := experiment.DefaultRunConfig("", "").Instructions
	if quick {
		instrs = 15_000
	}
	type variant struct {
		name string
		mod  func(*core.SamplerConfig)
	}
	def := core.DefaultSamplerConfig()
	variants := []variant{
		{fmt.Sprintf("baseline a=%d b=%d d=%d", def.A, def.B, def.D), func(*core.SamplerConfig) {}},
		{"a=2 (N=7 samples)", func(s *core.SamplerConfig) { s.A = 2 }},
		{"a=3 (N=15 samples)", func(s *core.SamplerConfig) { s.A = 3 }},
		{"b=6", func(s *core.SamplerConfig) {
			s.B = 6
			if s.A > s.B {
				s.A = s.B
			}
		}},
		{"d=2 (25% slack)", func(s *core.SamplerConfig) { s.D = 2 }},
		{"d=4 (6.25% slack)", func(s *core.SamplerConfig) { s.D = 4 }},
		{"4 conventional sets", func(s *core.SamplerConfig) { s.ConventionalSets = 4 }},
		{"2 ref + 2 explorer", func(s *core.SamplerConfig) { s.ReferenceSets = 2; s.ExplorerSets = 2 }},
	}
	var rcs []experiment.RunConfig
	for _, wl := range workloads {
		for _, v := range variants {
			rc := experiment.DefaultRunConfig("esp-nuca", wl)
			rc.Instructions = instrs
			v.mod(&rc.System.Sampler)
			rcs = append(rcs, rc)
		}
	}
	results, err := experiment.RunAllFunc(parallel, run, rcs)
	if err != nil {
		fail(err)
	}
	fmt.Println("== S5.2 sensitivity: ESP-NUCA protected-LRU constants ==")
	for wi, wl := range workloads {
		base := results[wi*len(variants)].Throughput
		for vi, v := range variants {
			res := results[wi*len(variants)+vi]
			fmt.Printf("%-8s %-22s perf=%8.4f norm=%6.3f\n", wl, v.name, res.Throughput, res.Throughput/base)
		}
		fmt.Println()
	}
}
