// Command espmon captures and inspects simulator telemetry: it runs an
// instrumented simulation that records interval metrics (JSONL) and
// Chrome trace_event JSON loadable in chrome://tracing or Perfetto, and
// summarizes the recorded adaptive behaviour (ESP-NUCA's per-bank nmax).
//
// Usage:
//
//	espmon run -arch esp-nuca -workload oltp -metrics out.jsonl -trace out.json
//	espmon run -workload apache -interval 2000            # metrics to stdout
//	espmon nmax -workload oltp                            # nmax adaptation table
//	espmon nmax -workload oltp -bank 3                    # one bank's time series
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"espnuca/internal/experiment"
	"espnuca/internal/obs"
	"espnuca/internal/sim"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "espmon:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: espmon <command> [flags]

commands:
  run      run one instrumented simulation; write interval metrics
           (-metrics, JSONL) and/or a Chrome trace (-trace, Perfetto JSON)
  nmax     run esp-nuca and report the per-bank nmax adaptation

run 'espmon <command> -h' for the command's flags`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "nmax":
		cmdNMax(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "espmon: unknown command %q\n\n", os.Args[1])
		usage()
	}
}

// runFlags are the simulation knobs shared by `run` and `nmax`.
type runFlags struct {
	arch, workload             string
	seed, warmup, instructions uint64
	interval                   uint64
}

func addRunFlags(fs *flag.FlagSet, defArch string) *runFlags {
	rf := &runFlags{}
	def := experiment.DefaultRunConfig("", "")
	fs.StringVar(&rf.arch, "arch", defArch, "architecture")
	fs.StringVar(&rf.workload, "workload", "oltp", "workload")
	fs.Uint64Var(&rf.seed, "seed", def.Seed, "perturbation seed")
	fs.Uint64Var(&rf.warmup, "warmup", def.Warmup, "per-core warmup instructions")
	fs.Uint64Var(&rf.instructions, "instructions", def.Instructions, "per-core measured instructions")
	fs.Uint64Var(&rf.interval, "interval", uint64(experiment.DefaultMetricsInterval), "sampling interval in cycles")
	return rf
}

// execute runs one instrumented simulation and returns the registry.
func (rf *runFlags) execute(reg *obs.Registry) (experiment.RunResult, error) {
	rc := experiment.DefaultRunConfig(rf.arch, rf.workload)
	rc.Seed = rf.seed
	rc.Warmup = rf.warmup
	rc.Instructions = rf.instructions
	rc.Metrics = reg
	rc.MetricsInterval = sim.Cycle(rf.interval)
	return experiment.Run(rc)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("espmon run", flag.ExitOnError)
	rf := addRunFlags(fs, "esp-nuca")
	metrics := fs.String("metrics", "-", "JSONL interval metrics file ('-': stdout, '': off)")
	tracePath := fs.String("trace", "", "Chrome trace_event JSON file ('': off)")
	promPath := fs.String("prom", "", "final registry snapshot in Prometheus text format ('': off)")
	fs.Parse(args)

	reg := obs.NewRegistry()
	var mw io.Writer
	switch *metrics {
	case "":
	case "-":
		mw = os.Stdout
	default:
		f, err := os.Create(*metrics)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		mw = f
	}
	if mw != nil {
		reg.AttachJSONL(mw)
	}
	if *tracePath != "" {
		reg.EnableTrace()
	}

	rep, err := rf.execute(reg)
	if err != nil {
		fail(err)
	}
	if err := reg.Err(); err != nil {
		fail(err)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := reg.Trace().WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *promPath != "" {
		f, err := os.Create(*promPath)
		if err != nil {
			fail(err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	fmt.Fprintf(os.Stderr, "%s/%s seed %d: %d intervals, %d series, throughput %.4f\n",
		rep.Arch, rep.Workload, rep.Seed, reg.Ticks(), len(reg.SeriesNames()), rep.Throughput)
	if *metrics != "" && *metrics != "-" {
		fmt.Fprintf(os.Stderr, "metrics: %s\n", *metrics)
	}
	if *tracePath != "" {
		fmt.Fprintf(os.Stderr, "trace:   %s (load in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
	if *promPath != "" {
		fmt.Fprintf(os.Stderr, "prom:    %s\n", *promPath)
	}
}

func cmdNMax(args []string) {
	fs := flag.NewFlagSet("espmon nmax", flag.ExitOnError)
	rf := addRunFlags(fs, "esp-nuca")
	bank := fs.Int("bank", -1, "dump one bank's full nmax time series")
	fs.Parse(args)

	reg := obs.NewRegistry()
	rep, err := rf.execute(reg)
	if err != nil {
		fail(err)
	}
	if *bank >= 0 {
		s := reg.Series(fmt.Sprintf("bank%02d.nmax", *bank))
		pts := s.Points()
		if len(pts) == 0 {
			fail(fmt.Errorf("no nmax series for bank %d (is -arch a protected-LRU ESP-NUCA?)", *bank))
		}
		fmt.Printf("# %s/%s seed %d, bank %d nmax per %d-cycle interval\n",
			rep.Arch, rep.Workload, rep.Seed, *bank, rf.interval)
		for _, p := range pts {
			fmt.Printf("%10d %3.0f\n", p.T, p.V)
		}
		return
	}

	fmt.Printf("# %s/%s seed %d: per-bank nmax adaptation over %d intervals\n",
		rep.Arch, rep.Workload, rep.Seed, reg.Ticks())
	fmt.Printf("%-6s %8s %6s %6s %6s %8s %8s %8s\n",
		"bank", "samples", "min", "max", "final", "hrc", "hrr", "hre")
	printed := 0
	for b := 0; ; b++ {
		nm := reg.Series(fmt.Sprintf("bank%02d.nmax", b))
		pts := nm.Points()
		if len(pts) == 0 {
			break
		}
		min, max := pts[0].V, pts[0].V
		for _, p := range pts {
			if p.V < min {
				min = p.V
			}
			if p.V > max {
				max = p.V
			}
		}
		last := func(name string) float64 {
			p, _ := reg.Series(fmt.Sprintf("bank%02d.%s", b, name)).Last()
			return p.V
		}
		fmt.Printf("bank%02d %8d %6.0f %6.0f %6.0f %8.3f %8.3f %8.3f\n",
			b, len(pts), min, max, pts[len(pts)-1].V, last("hrc"), last("hrr"), last("hre"))
		printed++
	}
	if printed == 0 {
		fail(fmt.Errorf("architecture %q exports no nmax series (need protected-LRU ESP-NUCA)", rf.arch))
	}
}
