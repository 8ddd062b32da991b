package resultcache

import (
	"context"
	"strconv"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/obs"
)

// Run executes rc through the cache: a hit returns the memoized result
// with zero simulation work, a miss simulates once and stores, and
// concurrent identical requests share one in-flight simulation. The
// returned result is bit-identical to a direct experiment.Run(rc).
//
// Instrumented configurations (rc.Metrics != nil) bypass the cache: a
// memoized result could not replay the run's telemetry side effects.
// Safe on a nil receiver (plain experiment.Run).
func (s *Store) Run(rc experiment.RunConfig) (experiment.RunResult, error) {
	return s.RunCtx(context.Background(), rc)
}

// RunCtx is Run with job-trace propagation: when ctx carries an
// obs.JobTrace (the serving daemon's per-job span collector), the cache
// records the job's `cache-lookup`, `run` and `cache-store` spans, so a
// trace shows exactly where a submission's time went — and a hit
// visibly short-circuits the tree after `cache-lookup`. Tracing wraps
// the existing flow without touching the simulation inputs, so traced
// results stay bit-identical; with no trace in ctx every span call is a
// nil-receiver no-op.
func (s *Store) RunCtx(ctx context.Context, rc experiment.RunConfig) (experiment.RunResult, error) {
	tr := obs.JobTraceFrom(ctx)
	if s == nil {
		return runTraced(tr, rc, "")
	}
	if rc.Metrics != nil {
		s.mu.Lock()
		s.stats.Bypassed++
		s.mu.Unlock()
		return runTraced(tr, rc, "instrumented")
	}
	key, err := rc.CanonicalKey()
	if err != nil {
		return experiment.RunResult{}, err
	}
	flightStart := time.Now()
	res, shared, err := s.flight.do(key, func() (experiment.RunResult, error) {
		lookup := startCellSpan(tr, "cache-lookup", rc)
		lookup.SetAttr("key", shortKey(key))
		if res, ok, err := s.Get(key); err != nil || ok {
			if ok {
				lookup.SetAttr("hit", "true")
			}
			lookup.End()
			return res, err
		}
		lookup.SetAttr("hit", "false")
		lookup.End()

		res, err := runTraced(tr, rc, "")
		if err != nil {
			return res, err
		}
		s.mu.Lock()
		s.stats.Runs++
		s.mu.Unlock()
		store := startCellSpan(tr, "cache-store", rc)
		err = s.Put(key, rc, res)
		store.End()
		return res, err
	})
	if shared {
		s.mu.Lock()
		s.stats.Shared++
		s.mu.Unlock()
		// The singleflight leader's closure recorded its spans into the
		// leader's own trace; this caller's trace gets a post-hoc lookup
		// span covering its wait on the shared simulation.
		lookup := tr.StartSpanAt("cache-lookup", obs.SpanHandle{}, flightStart)
		setCellAttrs(lookup, rc)
		lookup.SetAttr("key", shortKey(key))
		lookup.SetAttr("hit", "true")
		lookup.SetAttr("shared", "true")
		lookup.End()
	}
	return res, err
}

// runTraced executes the simulation under a `run` span with a
// `simulate` sub-span. bypass marks runs that skipped the cache.
func runTraced(tr *obs.JobTrace, rc experiment.RunConfig, bypass string) (experiment.RunResult, error) {
	run := startCellSpan(tr, "run", rc)
	if bypass != "" {
		run.SetAttr("cache_bypass", bypass)
	}
	sim := run.Child("simulate")
	res, err := experiment.Run(rc)
	sim.End()
	if err != nil {
		run.SetAttr("error", err.Error())
		run.End()
		return res, err
	}
	sim.SetAttr("cycles", strconv.FormatUint(uint64(res.Cycles), 10))
	sim.SetAttr("retired", strconv.FormatUint(res.Retired, 10))
	run.End()
	return res, nil
}

// startCellSpan opens a root-level span tagged with the cell identity,
// so matrix traces stay readable (every cache-lookup/run names its
// arch/workload/seed).
func startCellSpan(tr *obs.JobTrace, name string, rc experiment.RunConfig) obs.SpanHandle {
	h := tr.StartSpan(name, obs.SpanHandle{})
	setCellAttrs(h, rc)
	return h
}

func setCellAttrs(h obs.SpanHandle, rc experiment.RunConfig) {
	h.SetAttr("arch", rc.Arch)
	h.SetAttr("workload", rc.Workload)
	h.SetAttr("seed", strconv.FormatUint(rc.Seed, 10))
}

// shortKey abbreviates a canonical key for span attributes.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Runner returns Run as a free function with the experiment harness's
// cell-runner shape, pluggable into Matrix.RunFunc / Options.RunFunc.
func (s *Store) Runner() func(experiment.RunConfig) (experiment.RunResult, error) {
	return s.Run
}
