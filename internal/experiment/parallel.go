package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the concurrency substrate of the experiment harness.
// Every simulation of a matrix, and so of every artifact Evaluate
// renders, is a pure function of (configuration, seed), so its cells are
// embarrassingly parallel: forEach fans index-addressed jobs out over a
// bounded worker pool while Matrix.Run keeps results in an index-keyed
// slice, which makes the assembled output bit-for-bit identical to a
// serial run regardless of completion order.

// forEach runs job(0..n-1) on up to parallelism workers (<= 0 means
// runtime.GOMAXPROCS(0)). The first error — by job index, not by wall
// clock — cancels the remaining jobs and is returned after all in-flight
// jobs finish. With one worker (or one job) it degenerates to the plain
// serial loop, with identical early-exit semantics.
func forEach(parallelism, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Every job here is a simulation, and a worker between two of them
	// (building the next system, binding its workload) is about to need
	// its processor again. Counting the other workers as running for the
	// pool's lifetime keeps a run started in such a gap from piping its
	// streams onto that processor (pipe.go); runBound counts each run
	// itself.
	simulating.Add(int64(p - 1))
	defer simulating.Add(-int64(p - 1))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// progressMeter serializes completion callbacks from concurrent workers
// into a monotonic (done, total) stream: done increments under the lock
// that also spans the callback, so observers never see it move backwards
// or skip.
type progressMeter struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

func newProgressMeter(total int, fn func(done, total int)) *progressMeter {
	return &progressMeter{total: total, fn: fn}
}

// tick records one completed unit and reports it.
func (p *progressMeter) tick() {
	if p == nil || p.fn == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(p.done, p.total)
	p.mu.Unlock()
}
