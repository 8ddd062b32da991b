package cpu

import (
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

func testSystem(t *testing.T) arch.System {
	t.Helper()
	cfg := arch.ScaledConfig()
	sys, err := arch.Build("shared", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testStream(t *testing.T, core int) *workload.Stream {
	t.Helper()
	spec, ok := workload.ByName("apache")
	if !ok {
		t.Fatal("apache missing")
	}
	cfg := arch.ScaledConfig()
	return spec.Bind(cfg.L2Lines(), cfg.L1ILines(), 1).Streams[core]
}

func TestCoreRunsToTarget(t *testing.T) {
	eng := sim.NewEngine()
	sys := testSystem(t)
	c := New(0, DefaultConfig(), eng, sys, testStream(t, 0), 5000)
	c.Start()
	eng.RunUntil(0, func() bool { return c.Done })
	if c.Retired() < 5000 {
		t.Fatalf("retired %d, want >= 5000", c.Retired())
	}
	if c.Time() == 0 {
		t.Fatal("clock did not advance")
	}
	if ipc := c.IPC(); ipc <= 0 || ipc > float64(DefaultConfig().IssueWidth) {
		t.Fatalf("IPC = %g outside (0, issue width]", ipc)
	}
}

func TestCoreIPCBoundedByIssueWidth(t *testing.T) {
	// Even a perfectly cache-resident stream cannot exceed issue width.
	eng := sim.NewEngine()
	sys := testSystem(t)
	c := New(0, Config{IssueWidth: 2, Window: 64, MSHRs: 16, Quantum: 128},
		eng, sys, testStream(t, 0), 3000)
	c.Start()
	eng.RunUntil(0, func() bool { return c.Done })
	if c.IPC() > 2.0 {
		t.Fatalf("IPC %g exceeds issue width 2", c.IPC())
	}
}

func TestCoreWarmupWindow(t *testing.T) {
	eng := sim.NewEngine()
	sys := testSystem(t)
	c := New(0, DefaultConfig(), eng, sys, testStream(t, 0), 6000)
	c.SetWarmup(3000)
	c.Start()
	eng.RunUntil(0, func() bool { return c.Done })
	if !c.Warmed() {
		t.Fatal("warmup boundary never crossed")
	}
	cycles, instrs := c.MeasuredWindow()
	if instrs < 3000 || instrs > 3100 {
		t.Fatalf("measured instructions = %d, want ~3000", instrs)
	}
	if cycles == 0 || cycles >= c.Time() {
		t.Fatalf("measured cycles = %d of total %d", cycles, c.Time())
	}
	if mi := c.MeasuredIPC(); mi <= 0 {
		t.Fatalf("MeasuredIPC = %g", mi)
	}
}

func TestCoreWithoutWarmupUsesFullRun(t *testing.T) {
	eng := sim.NewEngine()
	sys := testSystem(t)
	c := New(0, DefaultConfig(), eng, sys, testStream(t, 0), 2000)
	c.Start()
	eng.RunUntil(0, func() bool { return c.Done })
	if c.Warmed() {
		t.Fatal("unexpected warmup boundary")
	}
	if c.MeasuredIPC() != c.IPC() {
		t.Fatal("MeasuredIPC should fall back to full-run IPC")
	}
}

func TestCoreStallsAccumulate(t *testing.T) {
	eng := sim.NewEngine()
	sys := testSystem(t)
	c := New(0, DefaultConfig(), eng, sys, testStream(t, 0), 20000)
	c.Start()
	eng.RunUntil(0, func() bool { return c.Done })
	if c.Stalls == 0 {
		t.Fatal("no stall cycles despite L2/memory misses")
	}
	if c.Stalls >= c.Time() {
		t.Fatalf("stalls %d >= total time %d", c.Stalls, c.Time())
	}
}

func TestMultipleCoresProgressTogether(t *testing.T) {
	eng := sim.NewEngine()
	sys := testSystem(t)
	spec, _ := workload.ByName("apache")
	cfg := arch.ScaledConfig()
	bound := spec.Bind(cfg.L2Lines(), cfg.L1ILines(), 7)
	var cores []*Core
	for i := 0; i < 8; i++ {
		c := New(i, DefaultConfig(), eng, sys, bound.Streams[i], 3000)
		c.Start()
		cores = append(cores, c)
	}
	eng.RunUntil(0, func() bool {
		for _, c := range cores {
			if !c.Done {
				return false
			}
		}
		return true
	})
	var minT, maxT sim.Cycle
	for i, c := range cores {
		if c.Retired() < 3000 {
			t.Fatalf("core %d retired %d", i, c.Retired())
		}
		if i == 0 || c.Time() < minT {
			minT = c.Time()
		}
		if c.Time() > maxT {
			maxT = c.Time()
		}
	}
	// Same workload on all cores: completion times should be comparable
	// (loose 3x bound; they contend for shared resources).
	if maxT > 3*minT {
		t.Fatalf("cores diverged: %d vs %d cycles", minT, maxT)
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.IssueWidth != 4 || cfg.Window != 64 || cfg.MSHRs != 16 {
		t.Fatalf("core config %+v does not match Table 2", cfg)
	}
}

// nextOnly hides a stream's NextRun, as a wrapping source does.
type nextOnly struct{ s *workload.Stream }

func (n nextOnly) Next() workload.Instr { return n.s.Next() }

// singles hands out one instruction per NextRun call, whatever m is, so
// the core retires every empty instruction on its own.
type singles struct{ *workload.Stream }

func (s singles) NextRun(int) (int, workload.Instr, bool) { return s.Stream.NextRun(1) }

// TestCoreRunsMatchSingles runs the same stream through long runs,
// through the one-instruction adapter a source without NextRun gets, and
// one instruction per call: the core must retire the same instructions
// in the same cycles every way, warmup boundary included.
func TestCoreRunsMatchSingles(t *testing.T) {
	type outcome struct {
		retired          uint64
		time, stalls     sim.Cycle
		warmCycles       sim.Cycle
		warmInstructions uint64
	}
	run := func(src func(*workload.Stream) InstrSource) outcome {
		eng := sim.NewEngine()
		c := New(0, DefaultConfig(), eng, testSystem(t), src(testStream(t, 0)), 20_000)
		c.SetWarmup(7_777)
		c.Start()
		eng.RunUntil(0, func() bool { return c.Done })
		dt, dr := c.MeasuredWindow()
		return outcome{c.Retired(), c.Time(), c.Stalls, dt, dr}
	}
	runs := run(func(s *workload.Stream) InstrSource { return s })
	for name, src := range map[string]func(*workload.Stream) InstrSource{
		"adapter": func(s *workload.Stream) InstrSource { return nextOnly{s} },
		"singles": func(s *workload.Stream) InstrSource { return singles{s} },
	} {
		if got := run(src); got != runs {
			t.Errorf("%s: core %+v, with runs %+v", name, got, runs)
		}
	}
}

// TestRetireMatchesDivision pins retireOne, which advances the clock
// without a division, and retire to the arithmetic of the division,
// warmup boundary included, at power-of-two and other issue widths.
func TestRetireMatchesDivision(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, iw := range []int{1, 2, 3, 4, 5, 8} {
		for _, warm := range []uint64{0, 1, 2, 7, 1_000} {
			c := &Core{cfg: Config{IssueWidth: iw}, warmTarget: warm}
			var time, warmTime sim.Cycle
			var retired uint64
			slot := 0
			for i := 0; i < 2_000; i++ {
				k := 1
				if rng.Bool(0.3) {
					k = rng.Intn(4 * iw)
					c.retire(k)
				} else {
					c.retireOne()
				}
				if warm > 0 && retired < warm && retired+uint64(k) >= warm {
					warmTime = time + sim.Cycle((slot+int(warm-retired-1))/iw)
				}
				retired += uint64(k)
				time += sim.Cycle((slot + k) / iw)
				slot = (slot + k) % iw
				if c.localTime != time || c.slot != slot || c.retired != retired || c.warmTime != warmTime ||
					c.warmed != (warm > 0 && retired >= warm) {
					t.Fatalf("issue width %d, warmup %d, retiring %d: clock %d slot %d warm %v at %d, want %d %d %v at %d",
						iw, warm, k, c.localTime, c.slot, c.warmed, c.warmTime, time, slot, retired >= warm, warmTime)
				}
			}
		}
	}
}
