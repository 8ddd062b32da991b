package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"espnuca/internal/arch"
)

// deterministicMatrix is the fixed small matrix the determinism and
// parallel-scaling tests share: 2 variants x 2 workloads x 2 seeds.
func deterministicMatrix() Matrix {
	m := NewMatrix([]string{"apache", "gcc-4"},
		[]Variant{V("shared", "shared"), V("esp-nuca", "esp-nuca")})
	m.Seeds = []uint64{1, 2}
	m.Warmup = 6_000
	m.Instructions = 3_000
	m.System = arch.ScaledConfig()
	return m
}

// TestMatrixParallelDeterminism is the concurrency contract of the
// harness: a matrix run on 8 workers must produce bit-for-bit the same
// Results — every Cell.PerfVec value and ordering, every RunResult — as
// the serial path. It is also the -race smoke test for the worker pool
// (see ROADMAP.md's verify line).
func TestMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs")
	}
	m := deterministicMatrix()

	m.Parallelism = 1
	serial, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = 8
	var prevDone int32
	parallel, err := m.Run(func(done, total int) {
		if int32(done) != atomic.AddInt32(&prevDone, 1) {
			t.Errorf("progress not monotonic: done=%d", done)
		}
		if total != 8 {
			t.Errorf("progress total = %d, want 8", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&prevDone); got != 8 {
		t.Errorf("progress reported %d completions, want 8", got)
	}

	sameResults(t, serial, parallel)

	// A union plan across Figures 4, 5 and 8 and the §5.2 sweep, where
	// each workload runs only the variants read on it and seven variants
	// edit the system.
	arts, err := lookup([]string{"4", "5", "8", "params"})
	if err != nil {
		t.Fatal(err)
	}
	u := Options{Seeds: []uint64{1}, Warmup: 2_000, Instructions: 1_000, System: arch.ScaledConfig()}.plan(arts)
	u.Parallelism = 1
	if serial, err = u.Run(nil); err != nil {
		t.Fatal(err)
	}
	u.Parallelism = 8
	if parallel, err = u.Run(nil); err != nil {
		t.Fatal(err)
	}
	if n := len(u.order()); n != 106 {
		t.Errorf("union plan has %d cells, want 106 (12 workloads x 5 SP/ESP variants, 4 x the 8 others and 2 x 7 sampler edits)", n)
	}
	sameResults(t, serial, parallel)
}

// sameResults fails the test unless the serial and parallel Results
// are identical.
func sameResults(t *testing.T, serial, parallel Results) {
	t.Helper()
	if !reflect.DeepEqual(serial, parallel) {
		for label, wls := range serial {
			for wl, cell := range wls {
				pcell := parallel[label][wl]
				if !reflect.DeepEqual(cell.PerfVec, pcell.PerfVec) {
					t.Errorf("%s/%s PerfVec: serial %v, parallel %v", label, wl, cell.PerfVec, pcell.PerfVec)
				}
			}
		}
		t.Fatal("parallel Results differ from serial Results")
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	boom := errors.New("boom")
	// Every job past index 2 fails; the returned error must be index 3's
	// regardless of which worker failed first on the wall clock.
	err := forEach(4, 16, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := err.Error(); got != "job 3: boom" {
		t.Fatalf("err = %q, want the lowest failing index (job 3)", got)
	}
}

func TestForEachCancelsAfterError(t *testing.T) {
	var ran atomic.Int32
	err := forEach(2, 1000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("ran all %d jobs despite cancellation", n)
	}
}

func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, p := range []int{0, 1, 3, 8, 64} {
		seen := make([]atomic.Int32, 37)
		if err := forEach(p, len(seen), func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("p=%d: job %d ran %d times", p, i, got)
			}
		}
	}
}

func TestProgressMeterMonotonic(t *testing.T) {
	last := 0
	meter := newProgressMeter(50, func(done, total int) {
		if done != last+1 || total != 50 {
			t.Errorf("progress (%d,%d) after done=%d", done, total, last)
		}
		last = done
	})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); meter.tick() }()
	}
	wg.Wait()
	if last != 50 {
		t.Fatalf("final done = %d, want 50", last)
	}
}

// runAll runs rcs on up to parallelism workers and returns the results
// in input order.
func runAll(t *testing.T, parallelism int, rcs []RunConfig) []RunResult {
	t.Helper()
	out := make([]RunResult, len(rcs))
	if err := forEach(parallelism, len(rcs), func(i int) (err error) {
		out[i], err = Run(rcs[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunAllPreservesOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	rcs := make([]RunConfig, 4)
	for i := range rcs {
		rcs[i] = DefaultRunConfig("shared", "apache")
		rcs[i].Warmup, rcs[i].Instructions = 5_000, 2_000
		rcs[i].Seed = uint64(i + 1)
	}
	par, ser := runAll(t, 8, rcs), runAll(t, 1, rcs)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("results differ between 8 workers and serial")
	}
	for i, r := range par {
		if r.Seed != uint64(i+1) {
			t.Fatalf("result %d has seed %d: input order not preserved", i, r.Seed)
		}
	}
}

func TestMatrixUnknownWorkloadFailsFast(t *testing.T) {
	m := NewMatrix([]string{"no-such-workload"}, []Variant{V("shared", "shared")})
	m.Parallelism = 4
	if _, err := m.Run(nil); err == nil {
		t.Fatal("unknown workload not rejected")
	}
}

// BenchmarkMatrixParallel runs the fixed quick matrix at 1/2/4/8 workers;
// on a multi-core machine the wall clock per op should fall near-linearly
// until the worker count passes the core count.
func BenchmarkMatrixParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			m := deterministicMatrix()
			m.Parallelism = p
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
