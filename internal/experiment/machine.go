// Package experiment runs complete simulations and regenerates the
// paper's tables and figures: it binds a workload to an architecture,
// executes all eight cores to an instruction target, and reduces the
// substrate counters into the metrics the paper reports (normalized
// performance, access-time decompositions, on-/off-chip behaviour,
// multi-seed confidence intervals, cross-benchmark variance).
package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/mem"
	"espnuca/internal/obs"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

// enginePool recycles event engines across runs: a simulation pushes
// hundreds of thousands of events through its engine, and reusing the
// grown heap backing array means matrix workers stop paying the
// queue's growth reallocation per cell. Engines are returned reset, with
// their event closures released, so a pooled engine is indistinguishable
// from a fresh one.
var enginePool = sync.Pool{New: func() any { return sim.NewEngine() }}

// machine is the hardware of one run that Run reuses for the next: the
// substrate every architecture is built over, and the cores (and their
// recorded sources) that drive it.
type machine struct {
	sub       *arch.Substrate
	cores     [mem.MaxCores]*cpu.Core
	recorded  [mem.MaxCores]recordedSource
	idleSince time.Time // when put last returned it
}

// machines is the free list Run takes its machines from. Building one
// (banks, line table, L1s, mesh, DRAM, every port's booking ring) is
// most of a short run's allocations, and every architecture runs on the
// same substrate, so a machine serves any run of the same hardware
// (arch.Config.SameMachine): the seed, the cooperation probability and
// the token check are per run, and Substrate.Reset takes them. Keying on
// the architecture too would rarely hit, since Matrix.Run starts the
// variants of a (workload, seed) one after another.
var machines machinePool

// machinePool is a bounded free list of idle machines. It holds at most
// GOMAXPROCS of them, the most that run at once, so a daemon keeps at
// most one idle machine per processor; past that the longest idle is
// dropped. A machine idle for idleMachineTTL is dropped too.
type machinePool struct {
	sync.Mutex
	idle  []*machine  // longest idle first
	sweep *time.Timer // runs dropStale while armed
	armed bool
}

// idleMachineTTL is how long an idle machine is kept. The runs of a
// matrix, a sweep, a benchmark loop or a daemon's queue follow each
// other within a millisecond or two. A process that has stopped
// simulating would otherwise keep a few megabytes of machines live, and
// the collector, pacing itself on the live heap, lets that much more
// garbage build up: with a one-second TTL, espserved's peak RSS while
// it served cached results read 8% above building a machine per run.
const idleMachineTTL = 100 * time.Millisecond

// get returns an idle machine of cfg's hardware, reset to cfg, or a new
// one when none is idle.
func (p *machinePool) get(cfg arch.Config) (*machine, error) {
	p.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if m := p.idle[i]; m.sub.Cfg.SameMachine(cfg) {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.Unlock()
			m.sub.Reset(cfg)
			return m, nil
		}
	}
	p.Unlock()
	return newMachine(cfg)
}

// newMachine builds a machine of cfg's hardware.
func newMachine(cfg arch.Config) (*machine, error) {
	sub, err := arch.NewSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	return &machine{sub: sub}, nil
}

// put returns m to the free list once its run has returned. It drops
// the run's streams, system and recording first: an idle machine would
// otherwise keep them alive (a bound workload's Zipf tables run to
// megabytes) until its next run.
func (p *machinePool) put(m *machine) {
	for _, c := range m.cores {
		if c != nil {
			c.Release()
		}
	}
	clear(m.recorded[:])
	m.idleSince = time.Now()
	p.Lock()
	defer p.Unlock()
	p.idle = append(p.idle, m)
	if n := len(p.idle) - runtime.GOMAXPROCS(0); n > 0 {
		p.idle = slices.Delete(p.idle, 0, n)
	}
	if !p.armed {
		p.armed = true
		if p.sweep == nil {
			p.sweep = time.AfterFunc(idleMachineTTL, p.dropStale)
		} else {
			p.sweep.Reset(idleMachineTTL)
		}
	}
}

// dropStale drops the machines idle for idleMachineTTL or longer, and
// runs again when the longest idle of the rest has been.
func (p *machinePool) dropStale() {
	p.Lock()
	defer p.Unlock()
	now := time.Now()
	p.idle = slices.DeleteFunc(p.idle, func(m *machine) bool { return now.Sub(m.idleSince) >= idleMachineTTL })
	if len(p.idle) == 0 {
		p.armed = false
		return
	}
	p.sweep.Reset(idleMachineTTL - now.Sub(p.idle[0].idleSince))
}

// RunConfig describes one simulation run.
type RunConfig struct {
	Arch     string
	Workload string
	// Warmup is the per-core instruction count executed before
	// measurement begins: caches fill, victim paths populate the L2, and
	// the adaptive mechanisms settle. Statistics are reset at the warmup
	// boundary.
	Warmup uint64
	// Instructions is the per-core measured retirement target.
	Instructions uint64
	Seed         uint64
	System       arch.Config
	Core         cpu.Config
	// WorkloadL2Lines pins the capacity the workload footprints are
	// scaled against (0: the simulated system's own L2), so a study can
	// change the cache without also changing the workload.
	WorkloadL2Lines int
	// MaxCycles bounds runaway simulations (0 = no bound). Expiry is not
	// an error: the run returns whatever the cores retired by the bound
	// (possibly failing with "made no progress" when that is nothing).
	MaxCycles sim.Cycle

	// Metrics, when non-nil, receives this run's telemetry (see
	// internal/obs): interval snapshots of per-bank hit rates and helping
	// blocks, ESP-NUCA's nmax/EMA series, NoC and DRAM utilization, and
	// the engine dispatch profile, plus warmup/measured phase events when
	// tracing is enabled. Each run needs its own registry; the matrix
	// runner creates one per cell. Its probes read the run's machine,
	// which a later run reuses, so the registry is final when the run
	// returns: tick it no further.
	// Telemetry attachments carry `canon:"-"`: TestRunMetricsDoNotPerturbResults
	// proves instrumentation leaves results bit-identical, so they are
	// excluded from CanonicalKey.
	Metrics *obs.Registry `canon:"-"`
	// MetricsInterval is the sampling interval in cycles (0 uses
	// DefaultMetricsInterval). Ignored without Metrics.
	MetricsInterval sim.Cycle `canon:"-"`
}

// DefaultRunConfig returns the harness defaults: the scaled system (all
// organization ratios of Table 2, 1/8 capacity), a cache-filling warmup
// and a 40k-instruction measurement quantum per core. It owns the run
// budgets: NewMatrix, DefaultOptions and the command-line defaults read
// them from here.
func DefaultRunConfig(archName, workloadName string) RunConfig {
	return RunConfig{
		Arch:         archName,
		Workload:     workloadName,
		Warmup:       80_000,
		Instructions: 40_000,
		Seed:         1,
		System:       arch.ScaledConfig(),
		Core:         cpu.DefaultConfig(),
		MaxCycles:    0,
	}
}

// Validate is the one authority on whether rc describes a simulation
// this harness can run. Run, RunOn, Matrix.Run, RunSpec.Config and so
// every service and facade entry point call it before any work starts,
// so a config one entry point accepts is accepted by all of them.
func (rc RunConfig) Validate() error {
	if err := arch.ValidateName(rc.Arch); err != nil {
		return err
	}
	if _, ok := workload.ByName(rc.Workload); !ok {
		return fmt.Errorf("experiment: unknown workload %q", rc.Workload)
	}
	if rc.Warmup+rc.Instructions < rc.Warmup {
		// runBound's per-core target would wrap.
		return fmt.Errorf("experiment: warmup %d + instructions %d overflows", rc.Warmup, rc.Instructions)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"issue width", rc.Core.IssueWidth},
		{"window", rc.Core.Window},
		{"MSHR count", rc.Core.MSHRs},
		{"quantum", rc.Core.Quantum},
	} {
		if f.v <= 0 {
			return fmt.Errorf("experiment: core %s must be positive, got %d", f.name, f.v)
		}
	}
	return rc.System.Validate()
}

// RunSpec is the user-facing description of one run: the service's
// JSON job payload and the espnuca facade's Options both lower through
// it. Zero values take the harness defaults (DefaultRunConfig): 80k
// warmup, 40k instructions, seed 1, the capacity-scaled Table 2 system.
type RunSpec struct {
	Arch     string `json:"arch"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed,omitempty"`
	// Warmup and Instructions override the per-core instruction budgets
	// when non-zero.
	Warmup       uint64 `json:"warmup,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	// FullSize simulates the paper's full Table 2 machine instead of the
	// capacity-scaled default.
	FullSize bool `json:"full_size,omitempty"`
	// CCProbability overrides the Cooperative Caching cooperation
	// probability when non-zero; it must lie in (0, 1].
	CCProbability float64 `json:"cc_probability,omitempty"`
}

// Config lowers the spec to a RunConfig and returns it together with
// its Validate verdict, so a bad spec is refused before it reaches a
// worker. The config is returned even when invalid.
func (sp RunSpec) Config() (RunConfig, error) {
	rc := DefaultRunConfig(sp.Arch, sp.Workload)
	if sp.Seed != 0 {
		rc.Seed = sp.Seed
	}
	if sp.Warmup != 0 {
		rc.Warmup = sp.Warmup
	}
	if sp.Instructions != 0 {
		rc.Instructions = sp.Instructions
	}
	if sp.FullSize {
		rc.System = arch.DefaultConfig()
	}
	if sp.CCProbability != 0 {
		rc.System.CCProbability = sp.CCProbability
	}
	return rc, rc.Validate()
}

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Arch     string
	Workload string
	Seed     uint64

	// Cycles is the simulated time until every measured core finished.
	Cycles sim.Cycle
	// Retired is the total instructions retired on measured cores.
	Retired uint64
	// Throughput is Retired/Cycles: the multithreaded performance metric.
	Throughput float64
	// MeanIPC is the average per-measured-core IPC: the multiprogrammed
	// metric (paper footnote 3).
	MeanIPC float64
	// PerCoreIPC is each core's measured-window IPC (zero for idle
	// cores).
	PerCoreIPC [mem.MaxCores]float64

	// AvgAccessTime and Decomposition reproduce Figure 6's metric.
	AvgAccessTime float64
	Decomposition [arch.NumLevels]float64

	// OffChipAccesses is the DRAM access count (Figure 7's first metric).
	OffChipAccesses uint64
	// OnChipLatency is the average latency of accesses satisfied on chip
	// (Figure 7's second metric).
	OnChipLatency float64

	// L1MissRate is the fraction of the measured window's L1 lookups
	// (instruction and data, all cores) that missed.
	L1MissRate float64
}

// Run validates rc and executes one simulation on a machine from the
// free list (machines), built fresh only when no idle one matches.
func Run(rc RunConfig) (RunResult, error) {
	if err := rc.Validate(); err != nil {
		return RunResult{}, err
	}
	return runValid(rc)
}

// runValid is Run for a validated rc.
func runValid(rc RunConfig) (RunResult, error) {
	rc.System.Seed = rc.Seed
	m, err := machines.get(rc.System)
	if err != nil {
		return RunResult{}, err
	}
	// A run that panics leaves its machine to the collector rather than
	// to the free list.
	res, err := m.run(rc)
	machines.put(m)
	return res, err
}

// run builds rc's architecture over m's substrate, new or reset to
// rc.System, and runs rc on it.
func (m *machine) run(rc RunConfig) (RunResult, error) {
	sys, err := arch.BuildOn(rc.Arch, m.sub)
	if err != nil {
		return RunResult{}, err
	}
	return runOn(rc, sys, m)
}

// RunOn validates rc and executes a simulation against a caller-built
// system; ablation studies use it to flip architecture-internal knobs
// before running.
func RunOn(rc RunConfig, sys arch.System) (RunResult, error) {
	if err := rc.Validate(); err != nil {
		return RunResult{}, err
	}
	// Align the system with the run seed exactly as Run does when it
	// builds the system itself: without this, a caller-built system runs
	// its stochastic mechanisms (ASR, CC) on whatever seed the config
	// happened to carry at build time.
	rc.System.Seed = rc.Seed
	sys.Sub().Reseed(rc.Seed)
	return runOn(rc, sys, new(machine))
}

// runOn binds the streams rc's run draws live and runs it on sys with
// m's cores. A run whose measured cores read a leased recording binds
// only its idle cores' streams.
func runOn(rc RunConfig, sys arch.System, m *machine) (RunResult, error) {
	spec, _ := workload.ByName(rc.Workload) // present: rc is validated
	k := streamKeyOf(rc)
	rec := leasedRecording(k)
	live := mem.CoreSet(1<<rc.System.Cores - 1)
	if rec != nil {
		live &^= spec.ActiveCores()
	}
	bound := spec.BindCores(k.l2Lines, k.l1iLines, rc.Seed, live)
	return runBound(rc, sys, bound, rec, m)
}

// runBound executes rc's warmup and measurement phases against a
// prepared system and freshly bound streams, on m's cores. With a
// recording of the measured streams, the measured cores read it;
// otherwise, when a processor is spare, the streams are generated ahead
// on it (pipe.go). The result is the same.
func runBound(rc RunConfig, sys arch.System, bound *workload.Bound, rec *recording, m *machine) (RunResult, error) {
	eng := enginePool.Get().(*sim.Engine)
	defer func() {
		eng.Reset()
		enginePool.Put(eng)
	}()
	measured := bound.Active
	var targets [mem.MaxCores]uint64
	for c := 0; c < rc.System.Cores; c++ {
		targets[c] = rc.Warmup + rc.Instructions
		if !measured.Has(c) {
			// Idle/service cores run until the measured cores finish;
			// give them an effectively unbounded target.
			targets[c] = ^uint64(0) >> 1
		}
	}
	var sources [mem.MaxCores]cpu.InstrSource
	for c := range rc.System.Cores {
		sources[c] = bound.Streams[c]
	}
	spare := spareProcessor()
	defer simulating.Add(-1)
	switch {
	case rec != nil:
		rec.once.Do(func() {
			// The run bound only its idle cores' streams (runOn); the
			// recording binds the measured ones it draws.
			k := streamKeyOf(rc)
			rec.record(bound.Spec.BindCores(k.l2Lines, k.l1iLines, rc.Seed, measured), targets[:rc.System.Cores])
		})
		for c := range rc.System.Cores {
			if measured.Has(c) {
				m.recorded[c] = recordedSource{runReader{runs: rec.cores[c]}}
				sources[c] = &m.recorded[c]
			}
		}
	case spare:
		pl := startPipeline(bound, targets[:rc.System.Cores])
		// The producer is stopped and joined on every return, a panic's
		// included.
		defer pl.finish()
		for c := range rc.System.Cores {
			sources[c] = &pl.sources[c]
		}
	}
	cores := m.cores[:rc.System.Cores]
	for c := range cores {
		if cores[c] == nil {
			cores[c] = cpu.New(c, rc.Core, eng, sys, sources[c], targets[c])
		} else {
			cores[c].Reuse(c, rc.Core, eng, sys, sources[c], targets[c])
		}
		cores[c].SetWarmup(rc.Warmup)
		cores[c].Start()
	}
	if rc.Metrics != nil {
		instrument(eng, sys, rc.Metrics, rc.MetricsInterval)
	}

	// Phase 1: run until every measured core has crossed its own warmup
	// boundary (each core's measured window is delimited per-core, so
	// heterogeneous speeds cannot skew the metrics); snapshot the global
	// counters here for the decomposition deltas.
	sub := sys.Sub()
	if rc.Warmup > 0 {
		warmDone := func() bool {
			for c := 0; c < rc.System.Cores; c++ {
				if measured.Has(c) && !cores[c].Warmed() {
					return false
				}
			}
			return true
		}
		eng.RunUntil(rc.MaxCycles, warmDone)
	}
	warmEnd := eng.Now()
	base := snapshot(sub)

	// Phase 2: measured execution.
	allDone := func() bool {
		for c := 0; c < rc.System.Cores; c++ {
			if measured.Has(c) && !cores[c].Done {
				return false
			}
		}
		return true
	}
	eng.RunUntil(rc.MaxCycles, allDone)

	if rc.Metrics != nil {
		// Close the final (possibly partial) sampling interval, then mark
		// the phase boundaries on the trace timeline (nil-safe when
		// tracing is off).
		rc.Metrics.Tick(uint64(eng.Now()))
		tr := rc.Metrics.Trace()
		tr.Complete("warmup", "phase", 0, uint64(warmEnd), 0)
		tr.Complete("measured", "phase", uint64(warmEnd), uint64(eng.Now()-warmEnd), 0)
	}

	return assembleResult(rc, sub, cores, measured, base)
}

// assembleResult reduces the post-run core and substrate state into a
// RunResult.
func assembleResult(rc RunConfig, sub *arch.Substrate, cores []*cpu.Core, measured mem.CoreSet, base statSnapshot) (RunResult, error) {
	res := RunResult{Arch: rc.Arch, Workload: rc.Workload, Seed: rc.Seed}
	var retired uint64
	var ipcSum float64
	var nMeasured int
	for c := 0; c < rc.System.Cores; c++ {
		if !measured.Has(c) {
			continue
		}
		dt, dr := cores[c].MeasuredWindow()
		retired += dr
		ipc := cores[c].MeasuredIPC()
		if c < len(res.PerCoreIPC) {
			res.PerCoreIPC[c] = ipc
		}
		ipcSum += ipc
		nMeasured++
		if dt > res.Cycles {
			res.Cycles = dt
		}
	}
	if res.Cycles == 0 || nMeasured == 0 {
		return res, fmt.Errorf("experiment: %s/%s made no progress", rc.Arch, rc.Workload)
	}
	res.Retired = retired
	// Aggregate throughput: per-core rates summed (each core's measured
	// window is its own; this is the transactions-per-unit-time proxy).
	res.Throughput = ipcSum
	res.MeanIPC = ipcSum / float64(nMeasured)

	d := delta(sub, base)
	res.AvgAccessTime, res.Decomposition = d.avgAccessTime()
	res.OffChipAccesses = d.dramReads + d.dramWrites

	// On-chip latency counts L1-miss traffic only (LocalL1 hits would
	// dilute the architecture-dependent term Figure 7 plots).
	var onChipLat, onChipN uint64
	for l := arch.RemoteL1; l < arch.OffChip; l++ {
		onChipLat += d.latency[l]
		onChipN += d.counts[l]
	}
	if onChipN > 0 {
		res.OnChipLatency = float64(onChipLat) / float64(onChipN)
	}

	if d.l1Total > 0 {
		res.L1MissRate = float64(d.l1Misses) / float64(d.l1Total)
	}
	return res, nil
}

// statSnapshot freezes the substrate counters at the warmup boundary so
// measurement reports deltas only.
type statSnapshot struct {
	counts, latency       [arch.NumLevels]uint64
	dramReads, dramWrites uint64
	l1Hits, l1Misses      uint64
}

func snapshot(s *arch.Substrate) statSnapshot {
	hits, misses := s.L1.HitMissTotals()
	return statSnapshot{
		counts:    s.Counts,
		latency:   s.Latency,
		dramReads: s.DRAM.Reads, dramWrites: s.DRAM.Writes,
		l1Hits:   hits,
		l1Misses: misses,
	}
}

type statDelta struct {
	counts, latency       [arch.NumLevels]uint64
	dramReads, dramWrites uint64
	l1Total, l1Misses     uint64
}

func delta(s *arch.Substrate, b statSnapshot) statDelta {
	var d statDelta
	for l := 0; l < int(arch.NumLevels); l++ {
		d.counts[l] = s.Counts[l] - b.counts[l]
		d.latency[l] = s.Latency[l] - b.latency[l]
	}
	d.dramReads = s.DRAM.Reads - b.dramReads
	d.dramWrites = s.DRAM.Writes - b.dramWrites
	curHits, curMisses := s.L1.HitMissTotals()
	misses := curMisses - b.l1Misses
	hits := curHits - b.l1Hits
	d.l1Misses = misses
	d.l1Total = misses + hits
	return d
}

func (d statDelta) avgAccessTime() (float64, [arch.NumLevels]float64) {
	var contrib [arch.NumLevels]float64
	var n, lat uint64
	for l := 0; l < int(arch.NumLevels); l++ {
		n += d.counts[l]
		lat += d.latency[l]
	}
	if n == 0 {
		return 0, contrib
	}
	for l := 0; l < int(arch.NumLevels); l++ {
		contrib[l] = float64(d.latency[l]) / float64(n)
	}
	return float64(lat) / float64(n), contrib
}

// Performance returns the metric the paper normalizes: throughput for
// multithreaded families, mean IPC for multiprogrammed ones.
func (r RunResult) Performance(kind workload.Kind) float64 {
	if kind == workload.HalfRate || kind == workload.Hybrid {
		return r.MeanIPC
	}
	return r.Throughput
}
