package service

import (
	"context"
	"fmt"

	"espnuca/internal/experiment"
	"espnuca/internal/resultcache"
)

// SimRunner executes jobs against the simulator through the result
// cache: every cell is memoized under its canonical key, concurrent
// identical requests share one in-flight simulation, and matrix jobs
// keep Matrix.Run's bounded parallelism and deterministic index-keyed
// assembly — a served result is bit-identical to a local run.
type SimRunner struct {
	// Cache memoizes runs; nil executes directly (still correct, never
	// reused).
	Cache *resultcache.Store
	// Parallelism bounds each matrix job's own worker pool when the
	// spec doesn't set one (0: all cores).
	Parallelism int
}

// Run implements Runner. Cancellation is honored between simulation
// cells: one cell is the atom of work.
func (r *SimRunner) Run(ctx context.Context, spec JobSpec, progress func(done, total int)) (any, error) {
	runCell := func(rc experiment.RunConfig) (experiment.RunResult, error) {
		if err := ctx.Err(); err != nil {
			return experiment.RunResult{}, err
		}
		// ctx carries the job's trace (when tracing is on), so the cache
		// records per-cell cache-lookup/run/cache-store spans. Nil-safe:
		// a nil store is a direct experiment.Run.
		return r.Cache.RunCtx(ctx, rc)
	}
	switch spec.Kind {
	case KindRun:
		rc, err := spec.Run.Config()
		if err != nil {
			return nil, err
		}
		progress(0, 1)
		res, err := runCell(rc)
		if err != nil {
			return nil, err
		}
		progress(1, 1)
		return res, nil
	case KindMatrix:
		m, err := spec.Matrix.Matrix()
		if err != nil {
			return nil, err
		}
		if m.Parallelism == 0 {
			m.Parallelism = r.Parallelism
		}
		m.RunFunc = runCell
		res, err := m.Run(progress)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	return nil, fmt.Errorf("service: unknown job kind %q", spec.Kind)
}
