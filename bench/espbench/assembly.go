package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/experiment"
	"espnuca/internal/mem"
	"espnuca/internal/obs"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

// layerStats aggregates what the timing wrappers and the substrate
// counters saw over one or more traced runs.
type layerStats struct {
	// clock is the cost of one empty timed region, subtracted from every
	// timing so that the clock reads do not count as work.
	clock int64

	buildMS, bindMS []float64

	// access is indexed by the arch.Level each L1 miss resolved at.
	access    [arch.NumLevels]log2Hist
	writeback log2Hist
	// next times one Next call in nextSampleEvery; nextCalls counts all.
	next      log2Hist
	nextCalls uint64

	// events and eventNS come from the engine probe: dispatched events
	// and the wall time spent inside their callbacks. loopNS is the wall
	// time of the engine loops around them.
	events  uint64
	eventNS int64
	loopNS  int64

	// instrs counts every instruction every core retired, warmup and
	// idle cores included: the denominator of the per-kinstr counts.
	instrs             uint64
	l1Hits, l1Misses   uint64
	messages, flitHops uint64
	dram               uint64
}

func (s *layerStats) merge(o *layerStats) {
	s.buildMS = append(s.buildMS, o.buildMS...)
	s.bindMS = append(s.bindMS, o.bindMS...)
	for l := range s.access {
		s.access[l].merge(&o.access[l])
	}
	s.writeback.merge(&o.writeback)
	s.next.merge(&o.next)
	s.nextCalls += o.nextCalls
	s.events += o.events
	s.eventNS += o.eventNS
	s.loopNS += o.loopNS
	s.instrs += o.instrs
	s.l1Hits += o.l1Hits
	s.l1Misses += o.l1Misses
	s.messages += o.messages
	s.flitHops += o.flitHops
	s.dram += o.dram
}

// OnDispatch implements sim.Probe.
func (s *layerStats) OnDispatch(_ sim.Cycle, _ int, wallNS int64) {
	s.events++
	s.eventNS += wallNS - s.clock
}

// since adds the time since start to h, less the clock cost.
func (s *layerStats) since(h *log2Hist, start time.Time) {
	h.add(int64(time.Since(start)) - s.clock)
}

// clockCost measures the cost of one empty timed region: the median of
// many time.Now/time.Since pairs around nothing.
func clockCost() int64 {
	xs := make([]float64, 10001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return int64(median(xs))
}

// nextSampleEvery is the sampling period of the Next timings: Next is
// called once per instruction and is cheaper than the two clock reads
// that would time every call.
const nextSampleEvery = 16

// timedSource counts every Next call of a core's instruction stream and
// times one in nextSampleEvery.
type timedSource struct {
	src cpu.InstrSource
	st  *layerStats
}

func (s *timedSource) Next() workload.Instr {
	s.st.nextCalls++
	if s.st.nextCalls%nextSampleEvery != 0 {
		return s.src.Next()
	}
	t := time.Now()
	in := s.src.Next()
	s.st.since(&s.st.next, t)
	return in
}

// timedSystem times every Access and WriteBack call of an architecture
// and records the level each access resolved at.
type timedSystem struct {
	arch.System
	st *layerStats
}

func (s *timedSystem) Access(at sim.Cycle, core int, line mem.Line, write bool) arch.Result {
	t := time.Now()
	r := s.System.Access(at, core, line, write)
	if r.Level >= 0 && r.Level < arch.NumLevels {
		s.st.since(&s.st.access[r.Level], t)
	}
	return r
}

func (s *timedSystem) WriteBack(at sim.Cycle, core int, line mem.Line, dirty bool) {
	t := time.Now()
	s.System.WriteBack(at, core, line, dirty)
	s.st.since(&s.st.writeback, t)
}

// tracer runs simulations through an assembly of public entry points
// (arch.Build, Spec.Bind, cpu.New, sim.Engine.SetProbe), as
// cmd/esptrace assembles its replays, with the wrappers above at every
// layer boundary. It is safe for concurrent runs: each run counts into
// its own layerStats, merged when the run ends.
type tracer struct {
	clock int64
	epoch time.Time
	spans *obs.Trace
	// lanes hands each concurrent run its own span track.
	lanes chan int

	mu  sync.Mutex
	agg layerStats
}

func newTracer(lanes int) *tracer {
	t := &tracer{clock: clockCost(), epoch: time.Now(), spans: obs.NewTrace(), lanes: make(chan int, lanes)}
	for i := 0; i < lanes; i++ {
		t.lanes <- i
	}
	t.agg.clock = t.clock
	return t
}

// span records [start, end) on lane, in microseconds since the epoch.
func (t *tracer) span(name, cat string, start, end time.Time, lane int) {
	t.spans.Complete(name, cat, uint64(start.Sub(t.epoch).Microseconds()), uint64(end.Sub(start).Microseconds()), lane)
}

// writeSpans writes the recorded spans as Chrome trace_event JSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		TraceEvents []obs.TraceEvent  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}{t.spans.Events(), map[string]string{"ts_unit": "1 ts = 1 microsecond of host wall time"}})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// idleTarget is the retirement target of unmeasured cores: they run
// until the measured cores finish.
const idleTarget = ^uint64(0) >> 1

// run executes rc as experiment.Run does and returns the fields of its
// RunResult that the assembly can reduce from public state: Retired,
// Cycles, PerCoreIPC, Throughput, MeanIPC and OffChipAccesses.
func (t *tracer) run(rc experiment.RunConfig) (experiment.RunResult, error) {
	lane := <-t.lanes
	defer func() { t.lanes <- lane }()
	st := layerStats{clock: t.clock}
	res := experiment.RunResult{Arch: rc.Arch, Workload: rc.Workload, Seed: rc.Seed}

	start := time.Now()
	rc.System.Seed = rc.Seed
	sys, err := arch.Build(rc.Arch, rc.System)
	if err != nil {
		return res, err
	}
	sys.Sub().Reseed(rc.Seed)
	built := time.Now()
	spec, ok := workload.ByName(rc.Workload)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", rc.Workload)
	}
	l2Lines := rc.WorkloadL2Lines
	if l2Lines == 0 {
		l2Lines = rc.System.L2Lines()
	}
	bound := spec.Bind(l2Lines, rc.System.L1ILines(), rc.Seed)
	bindEnd := time.Now()

	eng := sim.NewEngine()
	eng.SetProbe(&st)
	timed := &timedSystem{System: sys, st: &st}
	cores := make([]*cpu.Core, rc.System.Cores)
	measured := func(c int) bool { return bound.Active&(1<<uint(c)) != 0 }
	for c := range cores {
		target := rc.Warmup + rc.Instructions
		if !measured(c) {
			target = idleTarget
		}
		cores[c] = cpu.New(c, rc.Core, eng, timed, &timedSource{src: bound.Streams[c], st: &st}, target)
		cores[c].SetWarmup(rc.Warmup)
		cores[c].Start()
	}
	all := func(done func(*cpu.Core) bool) func() bool {
		return func() bool {
			for c, core := range cores {
				if measured(c) && !done(core) {
					return false
				}
			}
			return true
		}
	}
	sub := sys.Sub()
	loopStart := time.Now()
	if rc.Warmup > 0 {
		eng.RunUntil(rc.MaxCycles, all((*cpu.Core).Warmed))
	}
	warmEnd := time.Now()
	dram0 := sub.DRAM.Reads + sub.DRAM.Writes
	eng.RunUntil(rc.MaxCycles, all(func(c *cpu.Core) bool { return c.Done }))
	end := time.Now()

	var ipcSum float64
	var nMeasured int
	for c, core := range cores {
		st.instrs += core.Retired()
		if !measured(c) {
			continue
		}
		dt, dr := core.MeasuredWindow()
		res.Retired += dr
		ipc := core.MeasuredIPC()
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
		return res, fmt.Errorf("%s/%s made no progress", rc.Arch, rc.Workload)
	}
	res.Throughput = ipcSum
	res.MeanIPC = ipcSum / float64(nMeasured)
	res.OffChipAccesses = sub.DRAM.Reads + sub.DRAM.Writes - dram0

	st.buildMS = []float64{ms(built.Sub(start))}
	st.bindMS = []float64{ms(bindEnd.Sub(built))}
	st.loopNS = int64(end.Sub(loopStart))
	st.l1Hits, st.l1Misses = sub.L1.HitMissTotals()
	st.messages, st.flitHops = sub.Mesh.Messages, sub.Mesh.FlitHops
	st.dram = sub.DRAM.Reads + sub.DRAM.Writes

	t.mu.Lock()
	t.agg.merge(&st)
	t.mu.Unlock()
	t.span("run "+rc.Arch+"/"+rc.Workload, "run", start, end, lane)
	t.span("build", "run", start, built, lane)
	t.span("bind", "run", built, bindEnd, lane)
	t.span("warmup", "run", loopStart, warmEnd, lane)
	t.span("measured", "run", warmEnd, end, lane)
	return res, nil
}

// sameRun reports whether two results agree on every field run fills.
func sameRun(a, b experiment.RunResult) bool {
	return a.Retired == b.Retired && a.Cycles == b.Cycles &&
		a.OffChipAccesses == b.OffChipAccesses && a.PerCoreIPC == b.PerCoreIPC &&
		a.Throughput == b.Throughput && a.MeanIPC == b.MeanIPC
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the simulator-layer metrics from s.
func (s *layerStats) layerMetrics(values map[string]float64) {
	var access log2Hist
	for l := range s.access {
		access.merge(&s.access[l])
	}
	kinstr := float64(s.instrs) / 1000
	values["workload.next_ns"] = s.next.meanNS()
	values["workload.bind_ms"] = median(s.bindMS)
	values["arch.build_ms"] = median(s.buildMS)
	values["arch.access_ns"] = access.meanNS()
	values["arch.access_ns_p99"] = access.quantileNS(0.99)
	values["arch.access_per_kinstr"] = ratio(float64(access.n), kinstr)
	for l := arch.RemoteL1; l < arch.NumLevels; l++ {
		values["arch.access_ns."+l.String()] = s.access[l].meanNS()
	}
	values["arch.writeback_ns"] = s.writeback.meanNS()
	values["arch.writeback_per_kinstr"] = ratio(float64(s.writeback.n), kinstr)
	// A callback's self time is its wall time minus the nested calls the
	// wrappers timed and the two clock reads of each; untimed Next calls
	// are charged at the sampled mean.
	timedCalls := access.n + s.writeback.n + s.next.n
	nested := float64(access.totalNS+s.writeback.totalNS) + float64(s.nextCalls)*s.next.meanNS() +
		float64(timedCalls*2)*float64(s.clock)
	values["cpu.self_ns_per_event"] = ratio(float64(s.eventNS)-nested, float64(s.events))
	// The engine loop's own time, less the probe's two clock reads per
	// event.
	values["sim.dispatch_ns"] = ratio(float64(s.loopNS-s.eventNS)-float64(2*s.events)*float64(s.clock), float64(s.events))
	values["sim.events_per_kinstr"] = ratio(float64(s.events), kinstr)
	values["coherence.l1_lookups_per_kinstr"] = ratio(float64(s.l1Hits+s.l1Misses), kinstr)
	values["coherence.l1_miss_frac"] = ratio(float64(s.l1Misses), float64(s.l1Hits+s.l1Misses))
	values["noc.messages_per_kinstr"] = ratio(float64(s.messages), kinstr)
	values["noc.flit_hops_per_msg"] = ratio(float64(s.flitHops), float64(s.messages))
	values["mem.dram_accesses_per_kinstr"] = ratio(float64(s.dram), kinstr)
}
