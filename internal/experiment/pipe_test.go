package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

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
			return runBound(rc, sys, bound, nil, new(machine))
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

// TestRunRecordPacking checks the 12-byte run record: every flag
// combination and the largest line round-trip, and a line past 32 bits
// is refused rather than truncated.
func TestRunRecordPacking(t *testing.T) {
	if got := unsafe.Sizeof(run{}); got != 12 {
		t.Errorf("run record is %d bytes, want 12", got)
	}
	for f := 0; f < 1<<flagBits; f++ {
		in := workload.Instr{Flags: workload.Flags{HasFetch: f&runFetch != 0, IsMem: f&runMem != 0, Write: f&runWrite != 0}}
		if in.HasFetch {
			in.Fetch = math.MaxUint32
		}
		if in.IsMem {
			in.Data = 0x4200_0000
		}
		r := packRun(maxRunLen, in)
		got, ok := r.instr()
		if r.empty() != maxRunLen || ok != (f != 0) || (ok && got != in) {
			t.Errorf("flags %03b: unpacked (%d, %+v, %v), packed (%d, %+v)", f, r.empty(), got, ok, maxRunLen, in)
		}
	}
	if !panics(func() { packRun(0, workload.Instr{Data: 1 << 32, Flags: workload.Flags{IsMem: true}}) }) {
		t.Error("a 33-bit line was packed")
	}
}

// TestRecordedRunIdentical checks that a cell reading a shared recording
// gives the RunResult of a lone Run, byte for byte, on every
// architecture, for a mix with idle cores, and for a phased workload.
// It also checks the registry's lifetime rules: a recorded run starts
// no producer, a cell served without running draws no recording, the
// registry is empty after Matrix.Run returns, panics and errors
// included, and a core cannot draw past its recording.
func TestRecordedRunIdentical(t *testing.T) {
	small := func(archName, wl string) RunConfig {
		rc := DefaultRunConfig(archName, wl)
		rc.Warmup, rc.Instructions = 5_000, 3_000
		return rc
	}
	jsonOf := func(res RunResult) string {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	assertEmptyRegistry := func(when string) {
		t.Helper()
		recordings.Lock()
		n := len(recordings.leased)
		recordings.Unlock()
		if n != 0 {
			t.Errorf("%s: %d stream keys still leased", when, n)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var variants []Variant
	for _, name := range arch.Names() {
		variants = append(variants, V(name, name))
	}
	workloads := []string{"apache", "mcf-4"}
	m := NewMatrix(workloads, variants)
	m.Seeds = []uint64{1}
	m.Warmup, m.Instructions = 5_000, 3_000
	m.Parallelism = 1
	// A run function passes the lease through: every cell finds its
	// key's recording.
	m.RunFunc = func(rc RunConfig) (RunResult, error) {
		if leasedRecording(streamKeyOf(rc)) == nil {
			t.Errorf("%s/%s: no recording leased", rc.Arch, rc.Workload)
		}
		return Run(rc)
	}
	// With a processor spare, a lone run would pipe; a recorded one
	// must not.
	runtime.GOMAXPROCS(2)
	pipelines.Lock()
	pipelines.idle = nil
	pipelines.Unlock()
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	pipelines.Lock()
	pooled := len(pipelines.idle)
	pipelines.Unlock()
	if pooled != 0 {
		t.Errorf("a recorded matrix started %d producers", pooled)
	}
	assertEmptyRegistry("after Matrix.Run")
	for _, v := range variants {
		for _, wl := range workloads {
			lone, err := Run(small(v.Arch, wl))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := jsonOf(res[v.Label][wl].Runs[0]), jsonOf(lone); got != want {
				t.Errorf("%s/%s: recorded result differs from a lone run\nrecorded: %s\nlone:     %s", v.Label, wl, got, want)
			}
		}
	}

	// A phased workload, recorded by its first run and read by the rest.
	apache, _ := workload.ByName("apache")
	mcf, _ := workload.ByName("mcf-4")
	phased, err := workload.PhasedSpec("phased", apache.Assignments[0].App, mcf.Assignments[0].App, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recording{}
	for _, name := range arch.Names() {
		rc := small(name, "apache")
		var out [2]string
		for i, r := range []*recording{nil, rec} {
			sys, err := arch.Build(rc.Arch, rc.System)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runBound(rc, sys, phased.Bind(rc.System.L2Lines(), rc.System.L1ILines(), rc.Seed), r, new(machine))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = jsonOf(res)
		}
		if out[0] != out[1] {
			t.Errorf("phased on %s: recorded result differs from a lone run\nrecorded: %s\nlone:     %s", name, out[1], out[0])
		}
	}

	// Cells served without running never draw the recording.
	m.RunFunc = func(rc RunConfig) (RunResult, error) {
		r := leasedRecording(streamKeyOf(rc))
		if r == nil {
			t.Errorf("%s/%s: no recording leased", rc.Arch, rc.Workload)
			return RunResult{}, nil
		}
		for c := range r.cores {
			if r.cores[c] != nil {
				t.Errorf("%s/%s: a served cell found its recording drawn", rc.Arch, rc.Workload)
			}
		}
		return RunResult{Throughput: 1, MeanIPC: 1}, nil
	}
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	assertEmptyRegistry("after a served matrix")

	// The lease is released on the error and panic paths too.
	boom := errors.New("boom")
	m.RunFunc = func(rc RunConfig) (RunResult, error) {
		if rc.Arch == "asr" {
			return RunResult{}, boom
		}
		return RunResult{Throughput: 1, MeanIPC: 1}, nil
	}
	for _, p := range []int{1, 2} {
		m.Parallelism = p
		if _, err := m.Run(nil); !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want boom", p, err)
		}
		assertEmptyRegistry(fmt.Sprintf("after a failed matrix at parallelism %d", p))
	}
	m.Parallelism = 1
	m.RunFunc = func(RunConfig) (RunResult, error) { panic(boom) }
	if !panics(func() { m.Run(nil) }) {
		t.Fatal("the panicking run function did not panic")
	}
	assertEmptyRegistry("after a panicking matrix")

	// A recording holds exactly each measured core's target.
	spec, _ := workload.ByName("mcf-4")
	recorded, ref := spec.Bind(4096, 128, 3), spec.Bind(4096, 128, 3)
	targets := []uint64{50_000, 1, 20_000, 200_000, 0, 0, 0, 0}
	rec = &recording{}
	rec.record(recorded, targets)
	sizes := []int{1, 7, 64, 256, 5_000, 1 << 20}
	for c, target := range targets {
		if !recorded.Active.Has(c) {
			if rec.cores[c] != nil {
				t.Errorf("idle core %d was recorded", c)
			}
			continue
		}
		q := &recordedSource{runReader{runs: rec.cores[c]}}
		for pos, call := uint64(0), 0; pos < target; call++ {
			m := int(min(uint64(sizes[call%len(sizes)]), target-pos))
			e1, in1, ok1 := q.NextRun(m)
			e2, in2, ok2 := ref.Streams[c].NextRun(m)
			if e1 != e2 || in1 != in2 || ok1 != ok2 {
				t.Fatalf("core %d at %d: recorded NextRun(%d) = (%d, %+v, %v), stream (%d, %+v, %v)",
					c, pos, m, e1, in1, ok1, e2, in2, ok2)
			}
			pos += uint64(e1)
			if ok1 {
				pos++
			}
		}
		if !panics(func() { q.NextRun(1) }) {
			t.Errorf("core %d: drawing past its recording of %d did not panic", c, target)
		}
	}
}
