package experiment

import (
	"fmt"
	"reflect"
	"slices"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/stats"
	"espnuca/internal/workload"
)

// Variant is one architecture configuration under evaluation. Label is
// the display name (e.g. "CC30"); Arch the factory name; CCProb overrides
// the cooperation probability when >= 0.
type Variant struct {
	Label  string
	Arch   string
	CCProb float64
	// edit, when non-nil, edits the system after CCProb (the §5.2
	// sweep's sampler settings). It changes RunConfig.System, so the
	// canonical key covers it.
	edit func(arch.Config) arch.Config
}

// V returns a plain variant.
func V(label, archName string) Variant { return Variant{Label: label, Arch: archName, CCProb: -1} }

// CCVariant returns a Cooperative Caching variant with probability p.
func CCVariant(p float64) Variant {
	return Variant{Label: fmt.Sprintf("CC%02.0f", p*100), Arch: "cc", CCProb: p}
}

// CounterpartVariants are the paper's §6 comparison set, without the CC
// family (added separately because CC is reported as avg/best/worst over
// its four probabilities).
func CounterpartVariants() []Variant {
	return []Variant{
		V("shared", "shared"),
		V("private", "private"),
		V("d-nuca", "d-nuca"),
		V("asr", "asr"),
		V("esp-nuca", "esp-nuca"),
	}
}

// CCFamily returns the four statically-configured CC variants.
func CCFamily() []Variant {
	return []Variant{CCVariant(0), CCVariant(0.3), CCVariant(0.7), CCVariant(1.0)}
}

// Matrix is a run plan over workloads, variants and seeds. Every
// workload runs every variant, unless the matrix is the union of paper
// artifacts' cells (Options.plan), which runs each workload on only the
// variants read on it.
type Matrix struct {
	Workloads    []string
	Variants     []Variant
	Seeds        []uint64
	Warmup       uint64
	Instructions uint64
	System       arch.Config
	// Parallelism bounds the worker pool Run fans the cells out over:
	// 0 uses every core (runtime.GOMAXPROCS(0)), 1 forces serial
	// execution. Every cell is an independent deterministic simulation,
	// so the assembled Results are identical at any setting.
	Parallelism int
	// Obs, when non-nil, captures per-run telemetry: each cell gets its
	// own registry writing to Obs.Dir (simulation results are unaffected).
	Obs *ObsSpec
	// RunFunc, when non-nil, executes each cell in place of Run. It must
	// be equivalent to Run for results to stay meaningful; the result
	// cache and the serving daemon use it to substitute memoized or
	// cancellation-aware execution while keeping the matrix's
	// deterministic index-keyed assembly.
	RunFunc func(RunConfig) (RunResult, error)
	// only, when non-nil, marks the variants each workload runs:
	// only[wi*len(Variants)+vi]. Nil runs the cross product.
	only []bool
}

// NewMatrix returns a matrix with harness defaults: DefaultRunConfig's
// budgets and system, over three perturbation seeds.
func NewMatrix(workloads []string, variants []Variant) Matrix {
	rc := DefaultRunConfig("", "")
	return Matrix{
		Workloads:    workloads,
		Variants:     variants,
		Seeds:        []uint64{1, 2, 3},
		Warmup:       rc.Warmup,
		Instructions: rc.Instructions,
		System:       rc.System,
	}
}

// Cell aggregates the runs of one (variant, workload) pair.
type Cell struct {
	Perf    stats.Summary // performance metric across seeds
	Runs    []RunResult
	Kind    workload.Kind
	PerfVec []float64
}

// Results maps variant label -> workload -> cell.
type Results map[string]map[string]Cell

// at is one run of a plan: its variant, workload and seed indices, and
// the index of its (variant, workload) cell in workload-major order.
type at struct{ v, w, s, cell int }

// order returns the runs in the order Run starts them: workload-major,
// then by seed, then by variant, so the variants sharing a (workload,
// seed) recording run together and it is freed early.
func (m Matrix) order() []at {
	runs := make([]at, 0, len(m.Variants)*len(m.Workloads)*len(m.Seeds))
	cell := 0
	for wi := range m.Workloads {
		first := cell
		for si := range m.Seeds {
			cell = first
			for vi := range m.Variants {
				if m.only == nil || m.only[wi*len(m.Variants)+vi] {
					runs = append(runs, at{vi, wi, si, cell})
					cell++
				}
			}
		}
	}
	return runs
}

// cellConfig returns the run configuration of cell c, without telemetry
// (Run attaches a per-cell registry when Obs is set): the matrix's
// budgets and system on DefaultRunConfig's core.
func (m Matrix) cellConfig(c at) RunConfig {
	v := m.Variants[c.v]
	rc := RunConfig{
		Arch:         v.Arch,
		Workload:     m.Workloads[c.w],
		Warmup:       m.Warmup,
		Instructions: m.Instructions,
		Seed:         m.Seeds[c.s],
		System:       m.System,
		Core:         cpu.DefaultConfig(),
	}
	if v.CCProb >= 0 {
		rc.System.CCProbability = v.CCProb
	}
	if v.edit != nil {
		rc.System = v.edit(rc.System)
	}
	return rc
}

// Validate checks every distinct (variant, workload) cell with
// RunConfig.Validate (seeds never change the verdict). Run checks the
// same before opening any telemetry file or starting any simulation.
func (m Matrix) Validate() error {
	for _, c := range m.order() {
		if c.s != 0 {
			continue
		}
		if err := m.cellConfig(c).Validate(); err != nil {
			return fmt.Errorf("%s/%s: %w", m.Variants[c.v].Label, m.Workloads[c.w], err)
		}
	}
	return nil
}

// Run executes the whole matrix, fanning its distinct simulations out
// over a bounded worker pool (see Matrix.Parallelism). Cells whose runs
// are one simulation (arch.Simulation: CC that never spills is the
// private system) run it once, and each gets a copy of the result under
// its own Arch. Results are assembled from an index-keyed buffer, so the
// output — including every Cell.Runs / Cell.PerfVec ordering — is
// bit-for-bit identical at any parallelism. Progress, when non-nil, is
// called after every completed simulation with a monotonically
// increasing done count (calls are serialized; the callback needs no
// locking of its own).
//
// The cells of a (workload, seed) share their measured streams: Run
// leases their stream key for its duration, so they are generated once
// and every cell reads the same recording (pipe.go). Runs start in the
// order that order returns, and a failing Run returns the error of the
// first failing run in that order.
func (m Matrix) Run(progress func(done, total int)) (Results, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	order := m.order()
	cfgs := make([]RunConfig, len(order))
	for d, c := range order {
		cfgs[d] = m.cellConfig(c)
	}
	sims, of := simulations(cfgs)
	results := make([]RunResult, len(sims))
	meter := newProgressMeter(len(sims), progress)
	runCell := m.RunFunc
	if runCell == nil {
		// The cells are validated.
		runCell = runValid
	}
	shared := map[streamKey]int{}
	for _, runs := range sims {
		if k := streamKeyOf(cfgs[runs[0]]); k.target <= maxRecorded {
			shared[k]++
		}
	}
	for k, n := range shared {
		if n < 2 {
			delete(shared, k)
		}
	}
	ls := leaseRecordings(shared)
	defer ls.release()
	err := forEach(m.Parallelism, len(sims), func(i int) error {
		d := sims[i][0]
		c, rc := order[d], cfgs[d]
		label, wl, seed := m.Variants[c.v].Label, m.Workloads[c.w], m.Seeds[c.s]
		defer ls.done(streamKeyOf(rc))
		var finish func() error
		if m.Obs != nil {
			names := make([]string, len(sims[i]))
			for j, d := range sims[i] {
				names[j] = fmt.Sprintf("%s_%s_s%d", m.Variants[order[d].v].Label, wl, seed)
			}
			reg, fin, oerr := m.Obs.open(names...)
			if oerr != nil {
				return fmt.Errorf("%s/%s seed %d: %w", label, wl, seed, oerr)
			}
			rc.Metrics = reg
			rc.MetricsInterval = m.Obs.Interval
			finish = fin
		}
		res, err := runCell(rc)
		if finish != nil {
			if ferr := finish(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if err != nil {
			return fmt.Errorf("%s/%s seed %d: %w", label, wl, seed, err)
		}
		results[i] = res
		meter.tick()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Deterministic assembly: a cell's runs are its seeds' results, in
	// seed order, each a copy of its simulation's result under the
	// cell's own Arch.
	n := len(m.Seeds)
	runs := make([]RunResult, len(order))
	for d, c := range order {
		res := results[of[d]]
		res.Arch = cfgs[d].Arch
		runs[c.cell*n+c.s] = res
	}
	out := make(Results, len(m.Variants))
	for _, c := range order {
		if c.s != 0 {
			continue
		}
		v, wl := m.Variants[c.v], m.Workloads[c.w]
		if out[v.Label] == nil {
			out[v.Label] = make(map[string]Cell, len(m.Workloads))
		}
		spec, _ := workload.ByName(wl) // present: the matrix is validated
		cell := Cell{Kind: spec.Kind, Runs: runs[c.cell*n : (c.cell+1)*n : (c.cell+1)*n], PerfVec: make([]float64, n)}
		for si, res := range cell.Runs {
			cell.PerfVec[si] = res.Performance(spec.Kind)
		}
		cell.Perf = stats.Summarize(cell.PerfVec)
		out[v.Label][wl] = cell
	}
	return out, nil
}

// simulations groups the runs cfgs (in start order) by the simulation
// they are (arch.Simulation). sims lists each distinct simulation's runs
// in order of first appearance, so sims[i][0] is the run that executes
// it, and of[d] is the index in sims of run d's simulation.
func simulations(cfgs []RunConfig) (sims [][]int, of []int) {
	type id struct {
		arch, workload string
		seed           uint64
	}
	norm := make([]RunConfig, len(cfgs))
	byID := make(map[id][]int, len(cfgs)) // candidate indices into sims
	of = make([]int, len(cfgs))
	for d, rc := range cfgs {
		rc.Arch, rc.System = arch.Simulation(rc.Arch, rc.System)
		norm[d] = rc
		k := id{rc.Arch, rc.Workload, rc.Seed}
		i := slices.IndexFunc(byID[k], func(i int) bool { return reflect.DeepEqual(norm[sims[i][0]], rc) })
		if i < 0 {
			i = len(sims)
			byID[k] = append(byID[k], i)
			sims = append(sims, nil)
		} else {
			i = byID[k][i]
		}
		sims[i] = append(sims[i], d)
		of[d] = i
	}
	return sims, of
}

// Normalized returns variant v's mean performance on workload wl divided
// by baseline's, and the propagated relative CI half-width.
func (r Results) Normalized(v, baseline, wl string) (float64, float64, error) {
	num, ok := r[v][wl]
	if !ok {
		return 0, 0, fmt.Errorf("experiment: no cell %s/%s", v, wl)
	}
	den, ok := r[baseline][wl]
	if !ok {
		return 0, 0, fmt.Errorf("experiment: no baseline cell %s/%s", baseline, wl)
	}
	if den.Perf.Mean == 0 {
		return 0, 0, fmt.Errorf("experiment: zero baseline performance for %s", wl)
	}
	norm := num.Perf.Mean / den.Perf.Mean
	// First-order CI propagation for a ratio.
	rel := 0.0
	if num.Perf.Mean > 0 {
		rel = num.Perf.CI95 / num.Perf.Mean
	}
	relDen := den.Perf.CI95 / den.Perf.Mean
	return norm, norm * (rel + relDen), nil
}

// GeoMeanNormalized returns the geometric mean of v's normalized
// performance over the workloads.
func (r Results) GeoMeanNormalized(v, baseline string, workloads []string) (float64, error) {
	vals := make([]float64, 0, len(workloads))
	for _, wl := range workloads {
		n, _, err := r.Normalized(v, baseline, wl)
		if err != nil {
			return 0, err
		}
		vals = append(vals, n)
	}
	return stats.GeoMean(vals)
}

// VarianceNormalized returns the variance of v's normalized performance
// across the workloads — the paper's cross-benchmark stability metric.
func (r Results) VarianceNormalized(v, baseline string, workloads []string) (float64, error) {
	if len(workloads) == 0 {
		return 0, fmt.Errorf("experiment: variance of %s over zero workloads", v)
	}
	vals := make([]float64, 0, len(workloads))
	for _, wl := range workloads {
		n, _, err := r.Normalized(v, baseline, wl)
		if err != nil {
			return 0, err
		}
		vals = append(vals, n)
	}
	return stats.Variance(vals), nil
}

// CCAggregate folds the CC family cells for one workload into the
// avg/best/worst summary the paper plots.
func (r Results) CCAggregate(baseline, wl string) (avg, best, worst float64, err error) {
	var vals []float64
	for _, v := range CCFamily() {
		n, _, e := r.Normalized(v.Label, baseline, wl)
		if e != nil {
			return 0, 0, 0, e
		}
		vals = append(vals, n)
	}
	best, worst = vals[0], vals[0]
	sum := 0.0
	for _, x := range vals {
		sum += x
		if x > best {
			best = x
		}
		if x < worst {
			worst = x
		}
	}
	return sum / float64(len(vals)), best, worst, nil
}
