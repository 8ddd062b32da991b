package experiment

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"espnuca/internal/arch"
	"espnuca/internal/workload"
)

// TestPipedRunIdentical checks that generating the streams ahead on a
// spare processor changes no result: each run is made once under
// GOMAXPROCS 1, where it generates inline, and once under GOMAXPROCS 2,
// where it pipes, and the RunResult JSON must match byte for byte. It
// covers a half-rate mix (idle cores), the largest footprint and a
// phased workload, checks that a full-width worker pool does not pipe,
// and that every producer goroutine has exited afterwards.
func TestPipedRunIdentical(t *testing.T) {
	apache, _ := workload.ByName("apache")
	mcf, _ := workload.ByName("mcf-4")
	phased, err := workload.PhasedSpec("phased", apache.Assignments[0].App, mcf.Assignments[0].App, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	small := func(wl string) RunConfig {
		rc := DefaultRunConfig("esp-nuca", wl)
		rc.Warmup, rc.Instructions = 10_000, 10_000
		return rc
	}
	runs := []struct {
		name string
		run  func() (RunResult, error)
	}{
		{"mcf-4", func() (RunResult, error) { return Run(small("mcf-4")) }},
		{"FT", func() (RunResult, error) { return Run(small("FT")) }},
		{"phased", func() (RunResult, error) {
			rc := small("apache")
			sys, err := arch.Build(rc.Arch, rc.System)
			if err != nil {
				return RunResult{}, err
			}
			bound := phased.Bind(rc.System.L2Lines(), rc.System.L1ILines(), rc.Seed)
			return runBound(rc, sys, bound)
		}},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := runtime.NumGoroutine()
	for _, r := range runs {
		var out [2][]byte
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			pipelines.Lock()
			pipelines.idle = nil
			pipelines.Unlock()
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", r.name, procs, err)
			}
			if out[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
			// A piped run leaves its pipeline in the pool.
			pipelines.Lock()
			piped := len(pipelines.idle) > 0
			pipelines.Unlock()
			if piped != (procs > 1) {
				t.Fatalf("%s at GOMAXPROCS %d: piped = %v", r.name, procs, piped)
			}
		}
		if string(out[0]) != string(out[1]) {
			t.Errorf("%s: piped result differs from inline\ninline: %s\npiped:  %s", r.name, out[0], out[1])
		}
	}

	// A pool as wide as GOMAXPROCS generates inline, even for a run
	// that starts while the other worker is between runs.
	runtime.GOMAXPROCS(2)
	pipelines.Lock()
	pipelines.idle = nil
	pipelines.Unlock()
	if _, err := RunAll(2, []RunConfig{small("mcf-4"), small("FT"), small("apache")}); err != nil {
		t.Fatal(err)
	}
	pipelines.Lock()
	pooled := len(pipelines.idle)
	pipelines.Unlock()
	if pooled != 0 {
		t.Errorf("a 2-worker pool at GOMAXPROCS 2 piped a run (%d pipelines pooled)", pooled)
	}

	// A producer signals its exit just before it returns; allow it the
	// moment that takes.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipedSourceMatchesStream reads piped streams with NextRun sizes
// from one instruction to far past a batch, and checks the sequence
// against the stream's own NextRun, that a core cannot draw past its
// target, and that the producer draws exactly the target.
func TestPipedSourceMatchesStream(t *testing.T) {
	spec, _ := workload.ByName("mcf-4")
	piped, ref := spec.Bind(4096, 128, 3), spec.Bind(4096, 128, 3)
	targets := []uint64{50_000, 1, 0, 200_000}
	pl := startPipeline(piped, targets)
	sizes := []int{1, 7, 64, 256, 5_000, 1 << 20}
	for c, target := range targets {
		q := &pl.sources[c]
		for pos, call := uint64(0), 0; pos < target; call++ {
			m := int(min(uint64(sizes[call%len(sizes)]), target-pos))
			e1, in1, ok1 := q.NextRun(m)
			e2, in2, ok2 := ref.Streams[c].NextRun(m)
			if e1 != e2 || in1 != in2 || ok1 != ok2 {
				t.Fatalf("core %d at %d: piped NextRun(%d) = (%d, %+v, %v), stream (%d, %+v, %v)",
					c, pos, m, e1, in1, ok1, e2, in2, ok2)
			}
			pos += uint64(e1)
			if ok1 {
				pos++
			}
		}
		if target > 0 && !panics(func() { q.NextRun(1) }) {
			t.Errorf("core %d: drawing past the target of %d did not panic", c, target)
		}
		// The pipe's closing nil orders the producer's last draw before
		// this read.
		if pl.drawn[c] != target {
			t.Errorf("core %d: producer drew %d, target %d", c, pl.drawn[c], target)
		}
	}
	pl.finish()
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
