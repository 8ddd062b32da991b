package experiment

// Sampled execution (SMARTS-style): instead of simulating the whole
// instruction budget in detail, the budget is partitioned into K strata
// and one short measurement window per stratum is simulated in full
// detail. Everything between windows is covered by a cheap functional
// pass — streams are skipped (generator state only) across the bulk of
// each stratum, then the memory system is warmed functionally (tag
// arrays, directory and adaptive state advance; no events, no timing)
// just before the window, then a short detailed warmup refills the
// timed state (miss overlap, port/link queues) before measurement.
//
// Each window runs on its own freshly built arch.System and a pooled
// sim.Engine, so windows are independent and can execute concurrently.
// A window's inputs are exactly (RunConfig, its plan, the stream
// positions), all of which are deterministic, so results are
// bit-identical at any number of workers.
//
// The known risk of sampled simulation is warmup bias: short warmups
// understate miss rates (sharing-induced compulsory misses; see
// arXiv:1602.01329). That is why the estimator ships with a validation
// harness (SampledError) and why every sampled RunResult carries its
// confidence bounds in RunResult.Sampled — an estimate is never
// silently substituted for a full run (SampleWindows participates in
// the canonical key).

import (
	"fmt"
	"math"
	"time"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
	"espnuca/internal/stats"
	"espnuca/internal/workload"
)

const (
	// sampleMeasureShare is the detailed fraction of each stratum: a
	// window measures stratum/sampleMeasureShare instructions per core.
	// 1/8 keeps the detailed work near an eighth of the full run while
	// leaving each window long enough to average over the workload's
	// short-range burstiness.
	sampleMeasureShare = 8
	// sampleMaxDetailWarm caps the detailed (timed) warmup before each
	// window. It only has to refill core-local timed state — miss
	// overlap, bank ports, link queues — which settles within a few
	// thousand instructions.
	sampleMaxDetailWarm = 4096
	// sampleMaxFuncWarm caps the functional fast-forward per window and
	// per core. The window inherits all cache state from this pass, so
	// the cap trades estimate bias against warm cost; the validation
	// harness measures the residual error.
	sampleMaxFuncWarm = 16384
	// sampleIdleWindowFactor scales the retirement target of
	// idle/service cores inside a window. Idle cores mostly hit in
	// their L1s and retire far faster than measured cores, so a bounded
	// target keeps their background traffic flowing through most of the
	// window while staying deterministic (an unbounded idle core would
	// make stream positions depend on engine stop timing).
	sampleIdleWindowFactor = 4
)

// samplePlan positions one measurement window. All counts are per-core
// instructions; start is absolute within the run's instruction stream.
type samplePlan struct {
	start   uint64 // first measured instruction of the window
	stratum uint64 // instructions the window represents
	fwarm   uint64 // functional fast-forward before the window
	dwarm   uint64 // detailed (timed) warmup before measurement
	measure uint64 // measured instructions
}

// samplePlans partitions [warmup, warmup+instructions) into k strata and
// places one window at the head of each. A window's warmup never reaches
// back past the previous window's end — where "end" is the farthest any
// stream travels, which for idle cores is their bounded in-window target
// (sampleIdleWindowFactor beyond the measured cores') — so every stream
// enters every window at exactly the plan-derived position regardless of
// which worker ran the preceding windows, and a worker's streams only
// ever move forward. The factor bound keeps that idle end inside the
// stratum: (2*factor-1)*measure < measureShare*measure <= stratum.
func samplePlans(warmup, instructions uint64, k int) []samplePlan {
	plans := make([]samplePlan, k)
	stratum := instructions / uint64(k)
	rem := instructions % uint64(k)
	pos := warmup
	prevEnd := uint64(0)
	for i := range plans {
		s := stratum
		if uint64(i) < rem {
			s++
		}
		w := s / sampleMeasureShare
		if w < 1 {
			w = 1
		}
		d := uint64(sampleMaxDetailWarm)
		if d > w {
			d = w
		}
		gap := pos - prevEnd
		if d > gap {
			d = gap
		}
		f := uint64(sampleMaxFuncWarm)
		if f > gap-d {
			f = gap - d
		}
		plans[i] = samplePlan{start: pos, stratum: s, fwarm: f, dwarm: d, measure: w}
		// Idle cores end the window at pre + fwarm + idleFactor*(d+w).
		prevEnd = pos - d + uint64(sampleIdleWindowFactor)*(d+w)
		pos += s
	}
	return plans
}

// SampleEstimate carries the error bounds of a sampled run: per headline
// metric, the mean over the measurement windows and its 95% confidence
// half-width. It is attached to RunResult.Sampled so an estimate always
// travels with its bound.
type SampleEstimate struct {
	// Windows is the number of measurement windows (RunConfig.SampleWindows).
	Windows int

	Throughput    stats.Estimate
	MeanIPC       stats.Estimate
	AvgAccessTime stats.Estimate
	OnChipLatency stats.Estimate
	L1MissRate    stats.Estimate
	// OffChipAccesses estimates the run-total DRAM access count
	// (per-window counts extrapolated by each window's stratum share).
	OffChipAccesses stats.Estimate
}

// runSampled executes a validated rc in sampled mode, its windows fanned
// out over p workers (1 <= p <= rc.SampleWindows); Run dispatches here
// when rc.SampleWindows is positive. The returned result's headline
// metrics are window means (Cycles, Retired and OffChipAccesses are
// extrapolated totals) and RunResult.Sampled holds the estimates with
// their confidence bounds.
func runSampled(rc RunConfig, p int) (RunResult, error) {
	k := rc.SampleWindows
	spec, _ := workload.ByName(rc.Workload) // present: rc is validated
	rc.System.Seed = rc.Seed
	wlLines := rc.WorkloadL2Lines
	if wlLines == 0 {
		wlLines = rc.System.L2Lines()
	}
	plans := samplePlans(rc.Warmup, rc.Instructions, k)

	// Workers own contiguous chunks of windows so each worker's streams
	// walk strictly forward from one Bind. Every window's inputs depend
	// only on its plan (stream positions are resynchronized to
	// plan-derived values after each window), so chunking — and
	// therefore the worker count — cannot change results.
	wins := make([]RunResult, k)
	err := forEach(p, p, func(worker int) error {
		lo, hi := worker*k/p, (worker+1)*k/p
		if lo == hi {
			return nil
		}
		bound := spec.Bind(wlLines, rc.System.L1ILines(), rc.Seed)
		var pos [mem.MaxCores]uint64
		for i := lo; i < hi; i++ {
			res, err := runWindow(rc, bound, plans[i], &pos)
			if err != nil {
				return fmt.Errorf("window %d: %w", i, err)
			}
			wins[i] = res
		}
		return nil
	})
	if err != nil {
		return RunResult{}, err
	}
	return reduceSampled(rc, plans, wins), nil
}

// runWindow simulates one measurement window on a fresh system. pos
// tracks how many instructions each stream has generated so far; on
// return every stream sits at its canonical (plan-derived) position.
func runWindow(rc RunConfig, bound *workload.Bound, pl samplePlan, pos *[mem.MaxCores]uint64) (RunResult, error) {
	sys, err := arch.Build(rc.Arch, rc.System)
	if err != nil {
		return RunResult{}, err
	}
	cores := rc.System.Cores

	// Position the streams at the start of the functional warmup.
	pre := pl.start - pl.fwarm - pl.dwarm
	for c := 0; c < cores; c++ {
		if pos[c] < pre {
			bound.Streams[c].Skip(pre - pos[c])
			pos[c] = pre
		}
	}

	// Functional fast-forward: cache, directory and adaptive state
	// advance with timing disabled.
	if pl.fwarm > 0 {
		sub := sys.Sub()
		sub.SetFunctional(true)
		cpu.FunctionalWarm(sys, bound.Streams[:cores], pl.fwarm)
		sub.SetFunctional(false)
		for c := 0; c < cores; c++ {
			pos[c] += pl.fwarm
		}
	}

	// Detailed window: a short timed warmup, then measurement.
	wrc := rc
	wrc.SampleWindows = 0
	wrc.Warmup = pl.dwarm
	wrc.Instructions = pl.measure
	measuredTarget := pl.dwarm + pl.measure
	idleTarget := uint64(sampleIdleWindowFactor) * measuredTarget
	var consumed [mem.MaxCores]uint64
	res, err := runBound(wrc, sys, bound, idleTarget, &consumed)
	if err != nil {
		return RunResult{}, err
	}

	// Resynchronize every stream to its canonical post-window position:
	// the engine stops when the measured cores finish, so an idle core
	// may stop anywhere short of its own target, and its stream may have
	// been drawn ahead of it (never past the target) when the window
	// piped.
	for c := 0; c < cores; c++ {
		target := measuredTarget
		if !bound.Active.Has(c) {
			target = idleTarget
		}
		if consumed[c] < target {
			bound.Streams[c].Skip(target - consumed[c])
		}
		pos[c] += target
	}
	return res, nil
}

// reduceSampled aggregates per-window results into the point estimate.
// Rate-like metrics are window means; Cycles, Retired and
// OffChipAccesses are extrapolated to the full budget by each window's
// stratum share.
func reduceSampled(rc RunConfig, plans []samplePlan, wins []RunResult) RunResult {
	k := len(wins)
	res := RunResult{Arch: rc.Arch, Workload: rc.Workload, Seed: rc.Seed}
	thr := make([]float64, k)
	ipc := make([]float64, k)
	aat := make([]float64, k)
	ocl := make([]float64, k)
	l1m := make([]float64, k)
	off := make([]float64, k)
	var cycles, retired, offTotal float64
	var perCore [mem.MaxCores]float64
	var decomp [arch.NumLevels]float64
	for i, w := range wins {
		scale := float64(plans[i].stratum) / float64(plans[i].measure)
		thr[i] = w.Throughput
		ipc[i] = w.MeanIPC
		aat[i] = w.AvgAccessTime
		ocl[i] = w.OnChipLatency
		l1m[i] = w.L1MissRate
		off[i] = float64(w.OffChipAccesses) * scale
		offTotal += off[i]
		cycles += float64(w.Cycles) * scale
		retired += float64(w.Retired) * scale
		for c := range perCore {
			perCore[c] += w.PerCoreIPC[c]
		}
		for l := range decomp {
			decomp[l] += w.Decomposition[l]
		}
	}
	res.Throughput = stats.Mean(thr)
	res.MeanIPC = stats.Mean(ipc)
	res.AvgAccessTime = stats.Mean(aat)
	res.OnChipLatency = stats.Mean(ocl)
	res.L1MissRate = stats.Mean(l1m)
	for c := range perCore {
		res.PerCoreIPC[c] = perCore[c] / float64(k)
	}
	for l := range decomp {
		res.Decomposition[l] = decomp[l] / float64(k)
	}
	res.Cycles = sim.Cycle(cycles + 0.5)
	res.Retired = uint64(retired + 0.5)
	res.OffChipAccesses = uint64(offTotal + 0.5)

	// The off-chip estimate is for the run total: the per-window
	// extrapolations average to a per-stratum value, so both the mean
	// and its half-width scale by the window count.
	offEst := stats.EstimateOf(off)
	offEst.Mean *= float64(k)
	offEst.CI95 *= float64(k)
	res.Sampled = &SampleEstimate{
		Windows:         k,
		Throughput:      stats.EstimateOf(thr),
		MeanIPC:         stats.EstimateOf(ipc),
		AvgAccessTime:   stats.EstimateOf(aat),
		OnChipLatency:   stats.EstimateOf(ocl),
		L1MissRate:      stats.EstimateOf(l1m),
		OffChipAccesses: offEst,
	}
	return res
}

// SampleValidationArchs is the paper's evaluated set — the seven L2
// organizations the sampled-mode validation harness compares against
// full runs.
func SampleValidationArchs() []string {
	return []string{"shared", "private", "sp-nuca", "esp-nuca", "d-nuca", "asr", "cc"}
}

// SampledErrorRow reports sampled-vs-full agreement for one architecture:
// relative errors on the headline metrics and the wall-clock cost of
// both runs.
type SampledErrorRow struct {
	Arch string
	// Relative errors |sampled-full|/full.
	Throughput      float64
	AvgAccessTime   float64
	OffChipAccesses float64
	// RelCI95 is the sampled run's own reported Throughput confidence
	// half-width relative to its mean, for comparing the a-priori bound
	// with the measured error.
	RelCI95 float64

	FullSeconds    float64
	SampledSeconds float64
}

// SampledError is the validation harness: for every architecture in
// SampleValidationArchs it runs rc once in full and once sampled with k
// windows, and reports relative errors and wall clocks. rc.Arch and
// rc.SampleWindows are overridden per row.
func SampledError(rc RunConfig, k int) ([]SampledErrorRow, error) {
	rows := make([]SampledErrorRow, 0, len(SampleValidationArchs()))
	for _, a := range SampleValidationArchs() {
		frc := rc
		frc.Arch = a
		frc.SampleWindows = 0
		t0 := time.Now()
		full, err := Run(frc)
		if err != nil {
			return nil, fmt.Errorf("full %s: %w", a, err)
		}
		fullDur := time.Since(t0)

		src := rc
		src.Arch = a
		src.SampleWindows = k
		t0 = time.Now()
		samp, err := Run(src)
		if err != nil {
			return nil, fmt.Errorf("sampled %s: %w", a, err)
		}
		sampDur := time.Since(t0)

		rows = append(rows, SampledErrorRow{
			Arch:            a,
			Throughput:      relErr(samp.Throughput, full.Throughput),
			AvgAccessTime:   relErr(samp.AvgAccessTime, full.AvgAccessTime),
			OffChipAccesses: relErr(float64(samp.OffChipAccesses), float64(full.OffChipAccesses)),
			RelCI95:         samp.Sampled.Throughput.RelCI95(),
			FullSeconds:     fullDur.Seconds(),
			SampledSeconds:  sampDur.Seconds(),
		})
	}
	return rows, nil
}

// relErr returns |est-ref|/|ref| (0 when both are 0, +Inf when only the
// reference is).
func relErr(est, ref float64) float64 {
	if ref == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-ref) / math.Abs(ref)
}
