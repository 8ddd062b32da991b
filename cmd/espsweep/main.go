// Command espsweep regenerates the paper's tables and figures.
//
// Usage:
//
//	espsweep -figure 8            # one evaluation figure (4-10)
//	espsweep -table 1             # the workload catalog
//	espsweep -table 2 -csv        # the machine, full and scaled, as CSV
//	espsweep -all                 # every figure and the S6 report from one run set, full quality
//	espsweep -figure 8 -quick     # one seed, short quantum
//	espsweep -sweep params        # S5.2 sensitivity sweep (a, b, d, N)
//	espsweep -stability           # S6 cross-suite variance comparison (Figures 8-10's runs)
//	espsweep -figure 8 -table 1   # modes combine: their union runs once
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
	"slices"
	"strconv"
	"time"

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

	// Every mode is a list of artifact names; the modes given together
	// are evaluated as their union, in this order, from one run set.
	var names []string
	add := func(ns ...string) {
		for _, n := range ns {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	if *table != 0 {
		add("table" + strconv.Itoa(*table))
	}
	if *all {
		add("4", "5", "6", "7", "8", "9", "10")
	}
	if *figure != 0 {
		add(strconv.Itoa(*figure))
	}
	if *sweep != "" {
		add(*sweep)
	}
	if *all || *stab {
		add("stability")
	}
	if len(names) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	tabs, err := experiment.Evaluate(names, o)
	if err != nil {
		fail(err)
	}
	for _, tab := range tabs {
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab)
		}
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
