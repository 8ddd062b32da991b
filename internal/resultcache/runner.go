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
	return s.RunVia(ctx, rc, nil)
}

// Simulate executes rc directly — no cache, no leases — under the
// trace carried by ctx (the usual run/simulate span pair). It is the
// compute step RunVia applies on a miss; the cluster dispatcher calls
// it for its run-on-the-coordinator fallback so a fallback's trace is
// indistinguishable from a standalone daemon's.
func Simulate(ctx context.Context, rc experiment.RunConfig) (experiment.RunResult, error) {
	return runTraced(obs.JobTraceFrom(ctx), rc, "")
}

// RunVia generalizes RunCtx over the compute step: on a miss, compute
// produces the result (nil means simulate here — Simulate). The
// cluster coordinator passes its remote-dispatch function, so
// dispatched and local execution share one memoization, singleflight
// and span flow.
//
// When the store carries a Remote tier (SetRemote), a local miss first
// asks the fleet: peer fetch before compute, then the coordinator-
// granted run lease so the whole cluster simulates a key at most once
// concurrently. Remote failures degrade to node-local behavior — the
// tier removes duplicated work, it is never needed for correctness.
func (s *Store) RunVia(ctx context.Context, rc experiment.RunConfig, compute func(context.Context) (experiment.RunResult, error)) (experiment.RunResult, error) {
	tr := obs.JobTraceFrom(ctx)
	if compute == nil {
		compute = func(context.Context) (experiment.RunResult, error) {
			return runTraced(tr, rc, "")
		}
	}
	if s == nil {
		return compute(ctx)
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

		var release func(stored bool)
		if s.remote != nil {
			res, ok, err := s.remoteBeforeCompute(ctx, tr, rc, key, &release)
			if ok || err != nil {
				return res, err
			}
		}
		stored := false
		if release != nil {
			defer func() { release(stored) }()
		}

		res, err := compute(ctx)
		if err != nil {
			return res, err
		}
		s.mu.Lock()
		s.stats.Runs++
		s.mu.Unlock()
		store := startCellSpan(tr, "cache-store", rc)
		err = s.Put(key, rc, res)
		store.End()
		stored = err == nil
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

// remoteBeforeCompute runs the cluster-tier steps of a local miss:
// peer fetch, then the cluster-wide run lease. ok=true returns a
// remotely satisfied result (no compute needed); otherwise *release is
// set when this node won the lease and must announce the outcome. A
// non-nil error is only ever the caller's own cancellation — remote
// failures degrade to computing locally.
func (s *Store) remoteBeforeCompute(ctx context.Context, tr *obs.JobTrace, rc experiment.RunConfig, key string, release *func(stored bool)) (experiment.RunResult, bool, error) {
	fetch := startCellSpan(tr, "remote-fetch", rc)
	fetch.SetAttr("key", shortKey(key))
	res, ok, err := s.remote.Fetch(ctx, key)
	if err == nil && ok {
		fetch.SetAttr("hit", "true")
		fetch.End()
		s.mu.Lock()
		s.stats.RemoteHits++
		s.mu.Unlock()
		// Adopt the peer's result locally so the next request here is a
		// plain memory/disk hit and peers can fetch it from us too.
		return res, true, s.Put(key, rc, res)
	}
	fetch.SetAttr("hit", "false")
	fetch.End()
	if ctx.Err() != nil {
		return experiment.RunResult{}, false, context.Cause(ctx)
	}

	wait := startCellSpan(tr, "lease-wait", rc)
	wait.SetAttr("key", shortKey(key))
	res, ok, rel, err := s.remote.Acquire(ctx, key)
	wait.End()
	if err != nil {
		if ctx.Err() != nil {
			return experiment.RunResult{}, false, err
		}
		// Lease service unreachable: compute locally. The local
		// singleflight still collapses this node's duplicates.
		return experiment.RunResult{}, false, nil
	}
	if ok {
		s.mu.Lock()
		s.stats.RemoteHits++
		s.mu.Unlock()
		return res, true, s.Put(key, rc, res)
	}
	*release = rel
	return experiment.RunResult{}, false, nil
}

// runTraced executes the simulation under a `run` span with a
// `simulate` sub-span, plus a sub-span describing sampled execution.
// bypass marks runs that skipped the cache.
func runTraced(tr *obs.JobTrace, rc experiment.RunConfig, bypass string) (experiment.RunResult, error) {
	run := startCellSpan(tr, "run", rc)
	if bypass != "" {
		run.SetAttr("cache_bypass", bypass)
	}
	simStart := time.Now()
	sim := run.ChildAt("simulate", simStart)
	res, err := experiment.Run(rc)
	sim.End()
	if err != nil {
		run.SetAttr("error", err.Error())
		run.End()
		return res, err
	}
	sim.SetAttr("cycles", strconv.FormatUint(uint64(res.Cycles), 10))
	sim.SetAttr("retired", strconv.FormatUint(res.Retired, 10))
	if res.Sampled != nil {
		sub := run.ChildAt("sampled-windows", simStart)
		sub.SetAttr("windows", strconv.Itoa(rc.SampleWindows))
		sub.End()
	}
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
