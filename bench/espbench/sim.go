package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"espnuca/internal/arch"
	"espnuca/internal/experiment"
	"espnuca/internal/workload"
)

// simWorkload runs simulations in this process. One op is a whole
// Figure 8 regeneration (figure) or one run of arch/workload.
type simWorkload struct {
	name                 string
	figure               bool
	arch, workload       string
	warmup, instructions uint64
}

var (
	// figure8 is the paper's headline figure at QuickOptions: 36 short
	// runs of high-sharing workloads across all seven architectures.
	figure8 = simWorkload{name: "figure8", figure: true, warmup: 25_000, instructions: 10_000}
	// ftLong has the largest footprint, so the L2 miss, evict and DRAM
	// path dominates.
	ftLong = simWorkload{name: "ft-long", arch: "esp-nuca", workload: "FT", warmup: 80_000, instructions: 640_000}
	// mcfHalfrate has four measured cores and four idle ones and a small
	// memory system: stream generation and the core model dominate.
	mcfHalfrate = simWorkload{name: "mcf-halfrate", arch: "esp-nuca", workload: "mcf-4", warmup: 80_000, instructions: 320_000}
)

// figureWorkloads is Figure 8's transactional workload set.
var figureWorkloads = []string{"apache", "jbb", "oltp", "zeus"}

// setupRepeats is the fewest times set-up is timed. Set-up takes
// milliseconds and single timings of it vary by a factor of two, so
// setup_s is the median of many: as many more as fit in a twentieth of
// the run's measured time.
const setupRepeats = 11

func (w simWorkload) runConfig(seed uint64) experiment.RunConfig {
	rc := experiment.DefaultRunConfig(w.arch, w.workload)
	rc.Seed = seed
	rc.Warmup, rc.Instructions = w.warmup, w.instructions
	return rc
}

// setup builds every distinct system and binds every workload one op
// simulates, once each: the construction work each op repeats.
func (w simWorkload) setup(seed uint64) error {
	type system struct {
		arch string
		cfg  arch.Config
	}
	cfg := arch.ScaledConfig()
	cfg.Seed = seed
	systems := []system{{w.arch, cfg}}
	wls := []string{w.workload}
	if w.figure {
		systems, wls = nil, figureWorkloads
		for _, v := range append(experiment.CounterpartVariants(), experiment.CCFamily()...) {
			c := cfg
			if v.CCProb >= 0 {
				c.CCProbability = v.CCProb
			}
			systems = append(systems, system{v.Arch, c})
		}
	}
	for _, s := range systems {
		if _, err := arch.Build(s.arch, s.cfg); err != nil {
			return err
		}
	}
	for _, name := range wls {
		spec, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		spec.Bind(cfg.L2Lines(), cfg.L1ILines(), seed)
	}
	return nil
}

// timeSetup calls f repeatedly and returns the median of the durations
// it reports, in seconds.
func timeSetup(o options, f func() (time.Duration, error)) (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < setupRepeats || time.Since(start) < o.duration/20 {
		d, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

type runFunc func(experiment.RunConfig) (experiment.RunResult, error)

// opOut is what one op produced.
type opOut struct {
	wall    time.Duration
	retired uint64
	// digest hashes the checked output: the Figure 8 table text, or the
	// run's RunResult JSON.
	digest string
	// shape is non-nil when a Figure 8 table lacks the paper's shape.
	shape error
	// cells holds every simulation's result by canonical key, and cellMS
	// their wall times.
	cells  map[string]experiment.RunResult
	cellMS []float64
}

// op runs one op with run executing each simulation.
func (w simWorkload) op(o options, run runFunc) (opOut, error) {
	out := opOut{cells: map[string]experiment.RunResult{}}
	var mu sync.Mutex
	timed := func(rc experiment.RunConfig) (experiment.RunResult, error) {
		start := time.Now()
		res, err := run(rc)
		d := time.Since(start)
		if err != nil {
			return res, err
		}
		key, err := rc.CanonicalKey()
		if err != nil {
			return res, err
		}
		mu.Lock()
		out.cells[key] = res
		out.retired += res.Retired
		out.cellMS = append(out.cellMS, ms(d))
		mu.Unlock()
		return res, nil
	}
	start := time.Now()
	if w.figure {
		opts := experiment.QuickOptions()
		opts.Seeds = []uint64{o.seed}
		opts.Warmup, opts.Instructions = w.warmup, w.instructions
		opts.Parallelism = o.nproc
		opts.RunFunc = timed
		tab, err := experiment.Figure8(opts)
		out.wall = time.Since(start)
		if err != nil {
			return out, err
		}
		out.digest = digest([]byte(tab.String()))
		out.shape = figureShape(tab)
		return out, nil
	}
	res, err := timed(w.runConfig(o.seed))
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return out, err
	}
	out.digest = digest(b)
	return out, nil
}

// figureShape checks the paper's Figure 8 result: ESP-NUCA has the
// highest geometric-mean performance of all architectures.
func figureShape(tab experiment.Table) error {
	if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
		return fmt.Errorf("figure8: empty table")
	}
	gm := tab.Rows[len(tab.Rows)-1].Values
	esp := len(gm) - 1
	for i, v := range gm[:esp] {
		if v >= gm[esp] {
			return fmt.Errorf("figure8: %s GEOMEAN %.4f is not below esp-nuca's %.4f", tab.Columns[i], v, gm[esp])
		}
	}
	return nil
}

// check validates an op's output against the golden digest for its seed
// and against the first op of the run.
func (w simWorkload) check(o options, out, first opOut) error {
	if err := checkGolden(fmt.Sprintf("%s/%d", w.name, o.seed), out.digest); err != nil {
		return err
	}
	if out.digest != first.digest {
		return fmt.Errorf("%s: output differs between repetitions", w.name)
	}
	return out.shape
}

// timeUp reports whether another op, expected to take the median of
// the op times so far, would end past start+d. The first op always runs.
func timeUp(start time.Time, d time.Duration, opMS []float64) bool {
	if len(opMS) == 0 {
		return false
	}
	next := time.Duration(median(opMS) * float64(time.Millisecond))
	return time.Since(start)+next > d
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (w simWorkload) run(o options) (*report, error) {
	if o.trace {
		return w.runTraced(o)
	}
	r := newReport()
	setup, err := timeSetup(o, func() (time.Duration, error) {
		start := time.Now()
		err := w.setup(o.seed)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	r.values["setup_s"] = setup

	// One untimed op first, so lazily grown state (heap, engine pool) is
	// in place before timing.
	first, err := w.op(o, experiment.Run)
	if err == nil {
		err = w.check(o, first, first)
	}
	r.op(err)

	var walls, kips, cellMS, rss []float64
	before := mallocs()
	start := time.Now()
	for err == nil && !timeUp(start, o.duration, walls) {
		if err = resetPeakRSS(); err != nil {
			return nil, err
		}
		var out opOut
		out, err = w.op(o, experiment.Run)
		if err != nil {
			r.op(err)
			break
		}
		r.op(w.check(o, out, first))
		peak, perr := peakRSSMB()
		if perr != nil {
			return nil, perr
		}
		rss = append(rss, peak)
		walls = append(walls, ms(out.wall))
		kips = append(kips, float64(out.retired)/out.wall.Seconds()/1000)
		cellMS = append(cellMS, out.cellMS...)
	}
	r.values["op_ms_p50"] = median(walls)
	r.values["sim_kips"] = median(kips)
	r.values["allocs_per_op"] = ratio(float64(mallocs()-before), float64(len(walls)))
	r.values["peak_rss_mb"] = median(rss)
	r.note(describe("op_ms", "ms", walls))
	r.note(describe("sim_kips", "kIPS", kips))
	if w.figure {
		r.note(describe("cell_ms", "ms", cellMS))
	}
	return r, nil
}

// runTraced alternates untraced ops, profiled, with traced ops that run
// every simulation through the tracer, until the run's time is up.
func (w simWorkload) runTraced(o options) (*report, error) {
	r := newReport()
	tr := newTracer(o.nproc)
	var (
		plain, traced, cellMS, busy []float64
		profiles                    []string
		heapInuse                   uint64
	)
	first, err := w.op(o, experiment.Run)
	if err == nil {
		err = w.check(o, first, first)
	}
	r.op(err)
	var pairs []float64
	start := time.Now()
	for i := 0; err == nil && !timeUp(start, o.duration, pairs); i++ {
		prof := filepath.Join(o.outDir, fmt.Sprintf("cpu-%d.pprof", i))
		stop, perr := startCPUProfile(prof)
		if perr != nil {
			return nil, perr
		}
		var base, out opOut
		base, err = w.op(o, experiment.Run)
		if perr := stop(); perr != nil {
			return nil, perr
		}
		profiles = append(profiles, prof)
		if err == nil {
			err = w.check(o, base, first)
		}
		r.op(err)
		if err != nil {
			break
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heapInuse = max(heapInuse, m.HeapInuse)
		plain = append(plain, ms(base.wall))
		cellMS = append(cellMS, base.cellMS...)
		var sum float64
		for _, c := range base.cellMS {
			sum += c
		}
		busy = append(busy, sum/(float64(o.nproc)*ms(base.wall)))

		out, err = w.op(o, tr.run)
		if err == nil {
			err = w.sameOutput(base, out)
		}
		r.op(err)
		if err != nil {
			break
		}
		traced = append(traced, ms(out.wall))
		pairs = append(pairs, ms(base.wall+out.wall))
	}

	shares, err := cpuShares(profiles...)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		r.values[name+".cpu_share"] = v
	}
	tr.agg.layerMetrics(r.values)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.values["runtime.gc_cpu_frac"] = m.GCCPUFraction
	r.values["runtime.heap_inuse_mb"] = float64(heapInuse) / (1 << 20)
	r.values["experiment.run_ms"] = median(cellMS)
	r.values["experiment.pool_busy_frac"] = median(busy)
	for _, name := range servedOnly {
		r.values[name] = 0
	}
	r.values["trace.overhead_frac"] = ratio(median(traced), median(plain)) - 1
	r.note(describe("untraced op_ms", "ms", plain))
	r.note(describe("traced op_ms", "ms", traced))
	return r, tr.writeSpans(filepath.Join(o.outDir, "spans.json"))
}

// sameOutput is the non-perturbation check: the traced op must produce
// the untraced op's results, cell by cell (and, for Figure 8, the same
// table).
func (w simWorkload) sameOutput(base, traced opOut) error {
	if w.figure && traced.digest != base.digest {
		return fmt.Errorf("%s: traced table differs from the untraced one", w.name)
	}
	if len(traced.cells) != len(base.cells) {
		return fmt.Errorf("%s: traced op ran %d simulations, untraced %d", w.name, len(traced.cells), len(base.cells))
	}
	for key, b := range base.cells {
		if t, ok := traced.cells[key]; !ok || !sameRun(t, b) {
			return fmt.Errorf("%s: traced %s/%s differs from experiment.Run", w.name, b.Arch, b.Workload)
		}
	}
	return nil
}
