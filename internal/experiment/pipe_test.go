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

// The stream identity tests check that where a core's instructions come
// from changes no result. Each source must give the RunResult JSON of a
// lone run at GOMAXPROCS 1, which generates inline, byte for byte, on
// every architecture for apache, mcf-4 (idle cores) and a phased
// workload, and for lone runs on FT (the largest footprint) too:
//   - TestPipedRunIdentical: a lone run at GOMAXPROCS 2, which pipes its
//     streams from a producer goroutine;
//   - TestRecordedRunIdentical: a recorded key read by cells at
//     parallelism 1 (through a RunFunc) and at parallelism 2 (through
//     Run's own path);
//   - TestPipedSourceMatchesStream: a pipe and a recording read
//     directly, against the stream's own NextRun sequence.

// identityWorkloads are the workloads every source is compared on.
var identityWorkloads = []string{"apache", "mcf-4", "phased", "FT"}

func smallIdentityRun(archName, wl string) RunConfig {
	rc := DefaultRunConfig(archName, wl)
	rc.Warmup, rc.Instructions = 5_000, 3_000
	return rc
}

func resultJSON(t *testing.T, res RunResult, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// drainPiped reports whether a run since the last call piped: a piped
// run leaves its pipeline in the pool.
func drainPiped() bool {
	pipelines.Lock()
	defer pipelines.Unlock()
	n := len(pipelines.idle)
	pipelines.idle = nil
	return n > 0
}

// runPhasedIdentity runs the phased workload, which is not in the
// catalog, bound by hand; a non-nil rec is the recording its streams are
// read from.
func runPhasedIdentity(t *testing.T, archName string, rec *recording) (RunResult, error) {
	apache, _ := workload.ByName("apache")
	mcf, _ := workload.ByName("mcf-4")
	phased, err := workload.PhasedSpec("phased", apache.Assignments[0].App, mcf.Assignments[0].App, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := smallIdentityRun(archName, "apache")
	sys, err := arch.Build(rc.Arch, rc.System)
	if err != nil {
		return RunResult{}, err
	}
	return runBound(rc, sys, phased.Bind(rc.System.L2Lines(), rc.System.L1ILines(), rc.Seed), rec, new(machine))
}

func runIdentity(t *testing.T, archName, wl string) string {
	t.Helper()
	if wl == "phased" {
		res, err := runPhasedIdentity(t, archName, nil)
		return resultJSON(t, res, err)
	}
	res, err := Run(smallIdentityRun(archName, wl))
	return resultJSON(t, res, err)
}

// inlineRef holds the RunResult JSON of each lone inline run, keyed
// arch/workload; inlineResults fills it once.
var inlineRef map[string]string

func inlineResults(t *testing.T) map[string]string {
	t.Helper()
	if inlineRef != nil {
		return inlineRef
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := map[string]string{}
	for _, a := range arch.Names() {
		for _, wl := range identityWorkloads {
			drainPiped()
			ref[a+"/"+wl] = runIdentity(t, a, wl)
			if drainPiped() {
				t.Errorf("%s/%s at GOMAXPROCS 1 piped", a, wl)
			}
		}
	}
	inlineRef = ref
	return ref
}

func checkIdentical(t *testing.T, mode, archName, wl, got string) {
	t.Helper()
	if w := inlineResults(t)[archName+"/"+wl]; got != w {
		t.Errorf("%s/%s %s: result differs from an inline lone run\ngot:  %s\nwant: %s", archName, wl, mode, got, w)
	}
}

func assertEmptyRegistry(t *testing.T, when string) {
	t.Helper()
	recordings.Lock()
	n := len(recordings.leased)
	recordings.Unlock()
	if n != 0 {
		t.Errorf("%s: %d stream keys still leased", when, n)
	}
}

// assertNoProducers waits for the goroutine count to come back to
// baseline. A producer signals its exit just before it returns; allow it
// the moment that takes.
func assertNoProducers(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipedRunIdentical checks that generating the streams ahead on a
// spare processor changes no result: each lone run at GOMAXPROCS 2,
// which pipes, must match the inline run byte for byte. It also checks
// that a full-width worker pool does not pipe, and that no producer
// goroutine is left.
func TestPipedRunIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := runtime.NumGoroutine()
	inlineResults(t)
	runtime.GOMAXPROCS(2)
	for _, a := range arch.Names() {
		for _, wl := range identityWorkloads {
			drainPiped()
			got := runIdentity(t, a, wl)
			if !drainPiped() {
				t.Errorf("%s/%s at GOMAXPROCS 2 did not pipe", a, wl)
			}
			checkIdentical(t, "piped", a, wl, got)
		}
	}
	runAll(t, 2, []RunConfig{smallIdentityRun("esp-nuca", "mcf-4"), smallIdentityRun("esp-nuca", "FT"), smallIdentityRun("esp-nuca", "apache")})
	if drainPiped() {
		t.Error("a 2-worker pool at GOMAXPROCS 2 piped a run")
	}
	assertNoProducers(t, baseline)
}

// TestRecordedRunIdentical checks that cells reading a recorded stream
// key match a lone inline run byte for byte, at parallelism 1 through a
// RunFunc that checks every cell finds its key's recording, and at
// parallelism 2 through Run's own path. With a processor spare, a lone
// run would pipe; a recorded one must not, and neither may any run of a
// pool as wide as GOMAXPROCS. It also checks that a cell served without
// running draws nothing, that the registry is empty after Matrix.Run
// returns, errors and panics included, and that no producer goroutine
// is left.
func TestRecordedRunIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := runtime.NumGoroutine()
	inlineResults(t)
	runtime.GOMAXPROCS(2)
	names := arch.Names()
	var variants []Variant
	for _, a := range names {
		variants = append(variants, V(a, a))
	}
	m := NewMatrix([]string{"apache", "mcf-4"}, variants)
	m.Seeds = []uint64{1}
	m.Warmup, m.Instructions = 5_000, 3_000
	for _, p := range []int{1, 2} {
		mode := fmt.Sprintf("recorded at parallelism %d", p)
		m.Parallelism, m.RunFunc = p, nil
		if p == 1 {
			m.RunFunc = func(rc RunConfig) (RunResult, error) {
				if leasedRecording(streamKeyOf(rc)) == nil {
					t.Errorf("%s/%s: no recording leased", rc.Arch, rc.Workload)
				}
				return Run(rc)
			}
		}
		drainPiped()
		res, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		assertEmptyRegistry(t, "after Matrix.Run "+mode)
		for _, v := range variants {
			for _, wl := range m.Workloads {
				checkIdentical(t, mode, v.Arch, wl, resultJSON(t, res[v.Label][wl].Runs[0], nil))
			}
		}
		// The phased runs share a recording made here.
		rec := &recording{}
		phasedRes := make([]RunResult, len(names))
		err = forEach(p, len(names), func(i int) (err error) {
			phasedRes[i], err = runPhasedIdentity(t, names[i], rec)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range names {
			checkIdentical(t, mode, a, "phased", resultJSON(t, phasedRes[i], nil))
		}
		if drainPiped() {
			t.Errorf("a run %s piped its streams", mode)
		}
	}

	// Cells served without running never draw their recording.
	m.Parallelism = 1
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
	assertEmptyRegistry(t, "after a served matrix")

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
		assertEmptyRegistry(t, fmt.Sprintf("after a failed matrix at parallelism %d", p))
	}
	m.Parallelism = 1
	m.RunFunc = func(RunConfig) (RunResult, error) { panic(boom) }
	if !panics(func() { m.Run(nil) }) {
		t.Fatal("the panicking run function did not panic")
	}
	assertEmptyRegistry(t, "after a panicking matrix")
	assertNoProducers(t, baseline)
}

// TestPipedSourceMatchesStream checks that, read directly, a pipe and a
// recording are their stream: each hands out the stream's NextRun
// sequence at any call size, draws exactly its target and refuses a
// draw past it. Cores 0-3 of mcf-4 are measured and the only ones a
// recording holds.
func TestPipedSourceMatchesStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	mcf, _ := workload.ByName("mcf-4")
	targets := []uint64{50_000, 1, 20_000, 200_000, 0, 0, 0, 0}
	sizes := []int{1, 7, 64, 256, 5_000, 1 << 20}
	for _, mode := range []string{"piped", "recorded"} {
		src, ref := mcf.Bind(4096, 128, 3), mcf.Bind(4096, 128, 3)
		var pl *pipeline
		rec := &recording{}
		if mode == "piped" {
			pl = startPipeline(src, targets)
		} else {
			rec.record(src, targets)
		}
		for c, target := range targets {
			var q interface {
				NextRun(int) (int, workload.Instr, bool)
			}
			if mode == "piped" {
				q = &pl.sources[c]
			} else if !src.Active.Has(c) {
				if rec.cores[c] != nil {
					t.Errorf("idle core %d was recorded", c)
				}
				continue
			} else {
				q = &recordedSource{runReader{runs: rec.cores[c]}}
			}
			for pos, call := uint64(0), 0; pos < target; call++ {
				m := int(min(uint64(sizes[call%len(sizes)]), target-pos))
				e1, in1, ok1 := q.NextRun(m)
				e2, in2, ok2 := ref.Streams[c].NextRun(m)
				if e1 != e2 || in1 != in2 || ok1 != ok2 {
					t.Fatalf("%s core %d at %d: NextRun(%d) = (%d, %+v, %v), stream (%d, %+v, %v)",
						mode, c, pos, m, e1, in1, ok1, e2, in2, ok2)
				}
				pos += uint64(e1)
				if ok1 {
					pos++
				}
			}
			if target > 0 && !panics(func() { q.NextRun(1) }) {
				t.Errorf("%s core %d: drawing past the target of %d did not panic", mode, c, target)
			}
			// The pipe's closing nil orders the producer's last draw
			// before this read.
			if pl != nil && pl.drawn[c] != target {
				t.Errorf("core %d: producer drew %d, target %d", c, pl.drawn[c], target)
			}
		}
		if pl != nil {
			pl.finish()
		}
	}
	assertNoProducers(t, baseline)
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

// BenchmarkStreamSource measures the stream layer as a core sees it:
// host nanoseconds per instruction read from mcf-4's measured core 0,
// in NextRun calls of a core's default quantum, generated inline by the
// stream itself or read from a pipe a producer goroutine fills (which
// needs a second processor to gain anything).
func BenchmarkStreamSource(b *testing.B) {
	spec, _ := workload.ByName("mcf-4")
	cfg := arch.ScaledConfig()
	quantum := DefaultRunConfig("", "").Core.Quantum
	for _, mode := range []string{"inline", "piped"} {
		b.Run(mode, func(b *testing.B) {
			bound := spec.Bind(cfg.L2Lines(), cfg.L1ILines(), 1)
			var q interface {
				NextRun(int) (int, workload.Instr, bool)
			} = bound.Streams[0]
			if mode == "piped" {
				pl := startPipeline(bound, []uint64{uint64(b.N)})
				defer pl.finish()
				q = &pl.sources[0]
			}
			b.ResetTimer()
			for left := b.N; left > 0; {
				empty, _, ok := q.NextRun(min(left, quantum))
				left -= empty
				if ok {
					left--
				}
			}
		})
	}
}
