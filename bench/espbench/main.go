// Command espbench is the repository benchmark. Each invocation runs one
// named workload for a fixed time and prints, as its last line of
// standard output, one JSON object with the outcome and the metrics:
//
//	espbench -workload figure8 -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with no
// instrumentation. With -trace 1 it re-runs the workload with timing
// wrappers at the public layer boundaries and a CPU profile, and reports
// the per-layer metrics instead. Every simulated output is checked:
// against committed golden digests for seeds 1 to 3, and for identity
// across repetitions for every seed. bench/README.md defines each
// workload and metric.
//
// The benchmark reaches the simulator only through public entry points
// (experiment.Figure8, experiment.Run, arch.Build, Spec.Bind, cpu.New,
// sim.Engine.SetProbe and the espserved HTTP API), so any layer can
// change underneath it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"espnuca/internal/arch"
)

// options is one invocation's configuration.
type options struct {
	seed     uint64
	duration time.Duration
	trace    bool
	// nproc bounds both the goroutines doing simulation work and the
	// client connections of the served workload.
	nproc     int
	espserved string
	outDir    string
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"sim_kips", "kIPS"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.next_ns", "ns"},
		{"workload.bind_ms", "ms"},
		{"arch.build_ms", "ms"},
		{"arch.access_ns", "ns"},
		{"arch.access_ns_p99", "ns"},
		{"arch.access_per_kinstr", "count"},
	}
	for l := arch.RemoteL1; l < arch.NumLevels; l++ { // the levels an L1 miss resolves at
		defs = append(defs, metricDef{"arch.access_ns." + l.String(), "ns"})
	}
	defs = append(defs,
		metricDef{"arch.writeback_ns", "ns"},
		metricDef{"arch.writeback_per_kinstr", "count"},
		metricDef{"cpu.self_ns_per_event", "ns"},
		metricDef{"sim.dispatch_ns", "ns"},
		metricDef{"sim.events_per_kinstr", "count"},
		metricDef{"coherence.l1_lookups_per_kinstr", "count"},
		metricDef{"coherence.l1_miss_frac", "ratio"},
		metricDef{"noc.messages_per_kinstr", "count"},
		metricDef{"noc.flit_hops_per_msg", "count"},
		metricDef{"mem.dram_accesses_per_kinstr", "count"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.heap_inuse_mb", "MB"},
		metricDef{"experiment.run_ms", "ms"},
		metricDef{"experiment.pool_busy_frac", "ratio"},
		metricDef{"service.submit_frac", "ratio"},
		metricDef{"service.wait_frac", "ratio"},
		metricDef{"service.fetch_frac", "ratio"},
		metricDef{"service.queue_wait_frac", "ratio"},
		metricDef{"service.encode_frac", "ratio"},
		metricDef{"service.run_frac", "ratio"},
		metricDef{"resultcache.lookup_frac", "ratio"},
		metricDef{"resultcache.store_frac", "ratio"},
		metricDef{"resultcache.hit_frac", "ratio"},
	)
	for _, g := range shareGroups {
		defs = append(defs, metricDef{g.name + ".cpu_share", "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "ratio"})
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	// problems holds the first few failure messages; wrong marks a
	// failed check that belongs to no single op.
	problems []string
	wrong    bool
	values   map[string]float64
	notes    []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted op and, when err is non-nil, its failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%v", err)
	}
}

// check records a failed check that belongs to no single op.
func (r *report) check(err error) {
	if err != nil {
		r.wrong = true
		r.problem("%v", err)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the output line from the metrics defs names, every one
// of which must have been set.
func (r *report) result(defs []metricDef) (result, error) {
	out := result{
		Correct:   r.failed == 0 && !r.wrong && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"figure8":      figure8.run,
	"ft-long":      ftLong.run,
	"mcf-halfrate": mcfHalfrate.run,
	"served":       servedDefault.run,
}

// resetPeakRSS lowers this process's peak resident set size to its
// current one (Linux 4.0 and later), so that peakRSSMB measures the peak
// of what runs next.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's peak resident set size since it started
// or since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func main() {
	var (
		o       options
		name    = flag.String("workload", "", "workload to run: "+strings.Join(sortedKeys(workloads), ", "))
		seconds = flag.Float64("seconds", 20, "measured time of one run")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	flag.StringVar(&o.espserved, "espserved", "", "espserved binary for the served workload (default: next to this executable)")
	flag.StringVar(&o.outDir, "out", ".bench_build/espbench", "directory for CPU profiles, span traces and the served result cache")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.duration = time.Duration(*seconds * float64(time.Second))
	o.trace = *trace == 1
	o.nproc = runtime.NumCPU()
	if o.espserved == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		o.espserved = filepath.Join(filepath.Dir(exe), "espserved")
	}
	o.outDir = filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, o.seed, *trace))
	if err := os.RemoveAll(o.outDir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}

	rep, err := run(o)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res, err := rep.result(defs)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "espbench %s seed=%d trace=%v nproc=%d %s\n", *name, o.seed, o.trace, o.nproc, runtime.Version())
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "  FAILED: "+p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "espbench:", err)
	os.Exit(1)
}
