// Package espnuca is a simulator-backed reproduction of "ESP-NUCA: A
// Low-cost Adaptive Non-Uniform Cache Architecture" (Merino, Puente,
// Gregorio; HPCA 2010).
//
// It provides, behind one facade:
//
//   - a cycle-level CMP memory-system simulator (8 out-of-order cores,
//     split L1s, a 32-bank NUCA L2 on a 4x2 mesh with DOR routing, token
//     coherence, DRAM channels);
//   - the ten L2 organizations the paper evaluates: ESP-NUCA (flat and
//     protected LRU with set sampling), SP-NUCA and its two Figure 4
//     partitioning variants, and the counterparts (shared S-NUCA,
//     private/tiled, D-NUCA, ASR, Cooperative Caching);
//   - synthetic models of the paper's 22 workloads (Table 1);
//   - an experiment harness that regenerates every figure of the
//     evaluation section.
//
// Quick start:
//
//	report, err := espnuca.Run(espnuca.Options{
//		Architecture: "esp-nuca",
//		Workload:     "apache",
//	})
//
// Figures:
//
//	table, err := espnuca.Figure(8, espnuca.FigureOptions{})
//	fmt.Print(table)
package espnuca

import (
	"strconv"

	"espnuca/internal/arch"
	"espnuca/internal/experiment"
	"espnuca/internal/resultcache"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

// Options selects what to simulate.
type Options struct {
	// Architecture is one of Architectures() (default "esp-nuca").
	Architecture string
	// Workload is one of Workloads() (default "apache").
	Workload string
	// Seed perturbs the run for variability estimation (default 1).
	Seed uint64
	// Warmup and Instructions are per-core instruction counts for the
	// warmup and measured phases (defaults 80k / 40k).
	Warmup, Instructions uint64
	// FullSize simulates the paper's full Table 2 machine (8 MB L2,
	// 32 KB L1s) instead of the capacity-scaled default. Full-size runs
	// need proportionally longer warmup to exercise capacity effects.
	FullSize bool
	// CCProbability overrides the Cooperative Caching cooperation
	// probability (architecture "cc" only). Zero keeps the default (0.7)
	// and values outside (0, 1] are rejected; for a true CC-0%
	// configuration use the experiment package's CCFamily variants.
	CCProbability float64
	// CheckTokens enables per-transaction token-conservation checking
	// (slower; for debugging and tests).
	CheckTokens bool
}

// Report is the outcome of one simulation run.
type Report = experiment.RunResult

// Table is a rendered experiment (rows x columns) matching one of the
// paper's figures or tables.
type Table = experiment.Table

// Architectures lists every buildable L2 organization.
func Architectures() []string { return arch.Names() }

// Workloads lists the 22-workload catalog of Table 1.
func Workloads() []string { return workload.Names() }

// Run executes one simulation and returns its metrics.
func Run(o Options) (Report, error) {
	if o.Architecture == "" {
		o.Architecture = "esp-nuca"
	}
	if o.Workload == "" {
		o.Workload = "apache"
	}
	rc, err := experiment.RunSpec{
		Arch:          o.Architecture,
		Workload:      o.Workload,
		Seed:          o.Seed,
		Warmup:        o.Warmup,
		Instructions:  o.Instructions,
		FullSize:      o.FullSize,
		CCProbability: o.CCProbability,
	}.Config()
	if err != nil {
		return Report{}, err
	}
	rc.System.CheckTokens = o.CheckTokens
	return experiment.Run(rc)
}

// FigureOptions tune figure regeneration.
type FigureOptions struct {
	// Seeds are the perturbation seeds per data point (default 1,2,3).
	Seeds []uint64
	// Instructions is the measured per-core quantum (default 40k).
	Instructions uint64
	// Quick reduces cost to one seed and a short quantum.
	Quick bool
	// Parallelism bounds the worker pool the figure's independent
	// simulations fan out over: 0 uses every core, 1 forces serial
	// execution. Every run is a pure function of (configuration, seed),
	// so the regenerated tables are bit-for-bit identical at any
	// setting.
	Parallelism int
	// Progress, when non-nil, receives completion updates. Calls are
	// serialized and done only moves forward, even under parallelism.
	Progress func(done, total int)
	// MetricsDir, when set, captures per-run telemetry: every simulation
	// writes <variant>_<workload>_s<seed>.metrics.jsonl (interval
	// snapshots of per-bank hit rates, helping blocks, ESP-NUCA nmax/EMA
	// series, NoC and DRAM utilization) into this directory. Simulation
	// results are unaffected.
	MetricsDir string
	// TraceEvents additionally records a Perfetto-loadable Chrome
	// trace_event JSON per run (requires MetricsDir).
	TraceEvents bool
	// MetricsInterval is the sampling interval in cycles (0 uses the
	// harness default).
	MetricsInterval uint64
	// CacheDir, when set, memoizes every simulation in a
	// content-addressed result cache rooted at this directory (see
	// internal/resultcache). Re-running a figure with a warm cache
	// replays stored results instead of simulating; because cache keys
	// cover the full RunConfig and code version, the output is
	// bit-for-bit identical either way. Instrumented runs (MetricsDir
	// set) bypass the cache.
	CacheDir string
}

func (fo FigureOptions) internal() experiment.Options {
	o := experiment.DefaultOptions()
	if fo.Quick {
		o = experiment.QuickOptions()
	}
	if len(fo.Seeds) > 0 {
		o.Seeds = fo.Seeds
	}
	if fo.Instructions > 0 {
		o.Instructions = fo.Instructions
	}
	o.Parallelism = fo.Parallelism
	o.Progress = fo.Progress
	if fo.MetricsDir != "" {
		o.Obs = &experiment.ObsSpec{
			Dir:      fo.MetricsDir,
			Interval: sim.Cycle(fo.MetricsInterval),
			Trace:    fo.TraceEvents,
		}
	}
	return o
}

// Figure regenerates one of the paper's evaluation figures (4-10) as a
// table of the same series the paper plots.
func Figure(id int, fo FigureOptions) (Table, error) {
	o := fo.internal()
	if fo.CacheDir != "" {
		store, err := resultcache.Open(fo.CacheDir, resultcache.Options{})
		if err != nil {
			return Table{}, err
		}
		o.RunFunc = store.Runner()
	}
	tabs, err := experiment.Evaluate([]string{strconv.Itoa(id)}, o)
	if err != nil {
		return Table{}, err
	}
	return tabs[0], nil
}

// WorkloadTable returns Table 1 (the workload catalog).
func WorkloadTable() Table { return experiment.Table1() }
