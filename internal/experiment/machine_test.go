package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/workload"
)

// quickRC returns a fast run config for unit tests.
func quickRC(archName, wl string) RunConfig {
	rc := DefaultRunConfig(archName, wl)
	rc.Warmup = 20_000
	rc.Instructions = 10_000
	return rc
}

func TestRunProducesMetrics(t *testing.T) {
	res, err := Run(quickRC("esp-nuca", "apache"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Retired == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Throughput <= 0 || res.MeanIPC <= 0 {
		t.Fatalf("non-positive performance: %+v", res)
	}
	if res.AvgAccessTime <= 0 {
		t.Fatal("no access time recorded")
	}
	sum := 0.0
	for l := arch.Level(0); l < arch.NumLevels; l++ {
		sum += res.Decomposition[l]
	}
	if diff := sum - res.AvgAccessTime; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("decomposition sum %g != total %g", sum, res.AvgAccessTime)
	}
	if res.L1MissRate <= 0 || res.L1MissRate >= 1 {
		t.Fatalf("implausible L1 miss rate %g", res.L1MissRate)
	}
}

func TestRunUnknownInputs(t *testing.T) {
	rc := quickRC("esp-nuca", "nonexistent")
	if _, err := Run(rc); err == nil {
		t.Error("unknown workload accepted")
	}
	rc = quickRC("nonexistent", "apache")
	if _, err := Run(rc); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(quickRC("sp-nuca", "jbb"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickRC("sp-nuca", "jbb"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.OffChipAccesses != b.OffChipAccesses {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	rc := quickRC("sp-nuca", "jbb")
	rc.Seed = 2
	c, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles && c.OffChipAccesses == a.OffChipAccesses {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestRunOnSeedAlignment pins the Run/RunOn symmetry: a caller-built
// system must run the stochastic mechanisms (ASR's probabilistic
// allocation, CC's cooperation probability) on the run seed, not on
// whatever seed the config carried at build time. Regression test for
// RunOn results depending on build-time config state.
func TestRunOnSeedAlignment(t *testing.T) {
	for _, a := range []string{"asr", "cc"} {
		rc := quickRC(a, "apache")
		rc.Warmup, rc.Instructions = 6_000, 3_000
		rc.Seed = 5
		want, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rc.System
		cfg.Seed = 99 // stale seed a caller-built system might carry
		sys, err := arch.Build(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunOn(rc, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunOn with a stale build seed diverged from Run:\n got  %+v\n want %+v", a, got, want)
		}
	}
}

func TestRunNoProgressError(t *testing.T) {
	rc := quickRC("shared", "apache")
	rc.Warmup, rc.Instructions = 0, 0
	if _, err := Run(rc); err == nil || !strings.Contains(err.Error(), "made no progress") {
		t.Fatalf("err = %v, want a 'made no progress' failure for an empty budget", err)
	}
}

// TestBudgetOverflowRefused checks that a budget whose sum wraps is
// refused by every entry point, not run as the wrapped budget.
func TestBudgetOverflowRefused(t *testing.T) {
	rc, err := RunSpec{Arch: "shared", Workload: "apache", Warmup: math.MaxUint64 - 9, Instructions: 20}.Config()
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("RunSpec.Config: err = %v, want an overflow refusal", err)
	}
	if res, err := Run(rc); err == nil {
		t.Errorf("Run accepted the budget: %d instructions retired in %d cycles", res.Retired, res.Cycles)
	}
	m := NewMatrix([]string{"apache"}, []Variant{V("shared", "shared")})
	m.Warmup, m.Instructions = rc.Warmup, rc.Instructions
	if _, err := m.Run(nil); err == nil {
		t.Error("Matrix.Run accepted the budget")
	}
}

// TestRunMaxCyclesTruncates pins the documented MaxCycles contract:
// expiry is not an error — the run reports whatever the cores retired by
// the bound.
func TestRunMaxCyclesTruncates(t *testing.T) {
	rc := quickRC("shared", "apache")
	rc.Warmup = 0
	rc.Instructions = 1 << 30 // far beyond what the cycle bound allows
	rc.MaxCycles = 20_000
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Fatal("truncated run retired nothing")
	}
	if res.Retired >= 8*rc.Instructions {
		t.Fatalf("retired %d: the cycle bound did not truncate", res.Retired)
	}
	// Cores may overshoot the engine bound slightly (an in-flight slice
	// drains its outstanding misses), but not by a meaningful fraction.
	if res.Cycles > rc.MaxCycles+5_000 {
		t.Fatalf("measured %d cycles, far beyond the %d bound", res.Cycles, rc.MaxCycles)
	}
}

func TestRunHalfRateMeasuresActiveCoresOnly(t *testing.T) {
	res, err := Run(quickRC("shared", "gcc-4"))
	if err != nil {
		t.Fatal(err)
	}
	// 4 measured cores x 10k instructions.
	if res.Retired != 4*10_000 {
		t.Fatalf("retired = %d, want 40000", res.Retired)
	}
}

func TestPerformanceMetricByKind(t *testing.T) {
	r := RunResult{Throughput: 8, MeanIPC: 1}
	if r.Performance(workload.Transactional) != 8 {
		t.Error("transactional must use throughput")
	}
	if r.Performance(workload.HalfRate) != 1 || r.Performance(workload.Hybrid) != 1 {
		t.Error("multiprogrammed must use mean IPC")
	}
	if r.Performance(workload.NAS) != 8 {
		t.Error("NAS must use throughput")
	}
}

func TestMatrixRunAndNormalize(t *testing.T) {
	m := NewMatrix([]string{"gzip-4"}, []Variant{V("shared", "shared"), V("esp-nuca", "esp-nuca")})
	m.Seeds = []uint64{1, 2}
	m.Instructions = 8_000
	calls := 0
	res, err := m.Run(func(done, total int) {
		calls++
		if total != 4 {
			t.Fatalf("total = %d, want 4", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("progress calls = %d", calls)
	}
	n, ci, err := res.Normalized("esp-nuca", "shared", "gzip-4")
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("normalized = %g", n)
	}
	if ci < 0 {
		t.Fatalf("negative CI %g", ci)
	}
	if _, _, err := res.Normalized("esp-nuca", "shared", "bogus"); err == nil {
		t.Error("missing cell not reported")
	}
	g, err := res.GeoMeanNormalized("esp-nuca", "shared", []string{"gzip-4"})
	if err != nil || g != n {
		t.Fatalf("geomean over one workload = %g, want %g (%v)", g, n, err)
	}
	v, err := res.VarianceNormalized("esp-nuca", "shared", []string{"gzip-4"})
	if err != nil || v != 0 {
		t.Fatalf("variance over one workload = %g (%v)", v, err)
	}
}

func TestCCVariantLabels(t *testing.T) {
	fam := CCFamily()
	if len(fam) != 4 {
		t.Fatalf("CC family size %d", len(fam))
	}
	want := []string{"CC00", "CC30", "CC70", "CC100"}
	for i, v := range fam {
		if v.Label != want[i] {
			t.Fatalf("label %q, want %q", v.Label, want[i])
		}
		if v.Arch != "cc" {
			t.Fatalf("arch %q", v.Arch)
		}
	}
}

func TestCounterpartVariants(t *testing.T) {
	vs := CounterpartVariants()
	if len(vs) != 5 {
		t.Fatalf("counterparts = %d", len(vs))
	}
	for _, v := range vs {
		if _, err := arch.Build(v.Arch, arch.ScaledConfig()); err != nil {
			t.Errorf("variant %s unbuildable: %v", v.Label, err)
		}
	}
}

func TestTable1Catalog(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 22 {
		t.Fatalf("Table 1 has %d rows, want 22", len(tab.Rows))
	}
	if tab.String() == "" {
		t.Fatal("empty render")
	}
}

// TestZeroParameterRefused zeroes each machine latency, count and period
// and each core parameter, on the full and on the scaled machine: the
// constructors take them as given, so validation must refuse every one.
// A machine field left out (StaticPrivateWays, Sampler.D,
// CCProbability, Seed, CheckTokens) has a meaningful zero.
func TestZeroParameterRefused(t *testing.T) {
	system := []struct {
		name string
		zero func(c *arch.Config)
	}{
		{"Cores", func(c *arch.Config) { c.Cores = 0 }},
		{"Banks", func(c *arch.Config) { c.Banks = 0 }},
		{"SetsPerBank", func(c *arch.Config) { c.SetsPerBank = 0 }},
		{"Ways", func(c *arch.Config) { c.Ways = 0 }},
		{"BlockBytes", func(c *arch.Config) { c.BlockBytes = 0 }},
		{"BankLatency", func(c *arch.Config) { c.BankLatency = 0 }},
		{"TagLatency", func(c *arch.Config) { c.TagLatency = 0 }},
		{"L1.Bytes", func(c *arch.Config) { c.L1.Bytes = 0 }},
		{"L1.Ways", func(c *arch.Config) { c.L1.Ways = 0 }},
		{"L1.BlockBytes", func(c *arch.Config) { c.L1.BlockBytes = 0 }},
		{"L1.Latency", func(c *arch.Config) { c.L1.Latency = 0 }},
		{"L1.TagLatency", func(c *arch.Config) { c.L1.TagLatency = 0 }},
		{"NoC.Cols", func(c *arch.Config) { c.NoC.Cols = 0 }},
		{"NoC.Rows", func(c *arch.Config) { c.NoC.Rows = 0 }},
		{"NoC.HopLatency", func(c *arch.Config) { c.NoC.HopLatency = 0 }},
		{"NoC.LinkBytes", func(c *arch.Config) { c.NoC.LinkBytes = 0 }},
		{"NoC.MemRouters", func(c *arch.Config) { c.NoC.MemRouters = nil }},
		{"DRAM.Latency", func(c *arch.Config) { c.DRAM.Latency = 0 }},
		{"DRAM.Interval", func(c *arch.Config) { c.DRAM.Interval = 0 }},
		{"DRAM.Channels", func(c *arch.Config) { c.DRAM.Channels = 0 }},
		{"Sampler.A", func(c *arch.Config) { c.Sampler.A = 0 }},
		{"Sampler.B", func(c *arch.Config) { c.Sampler.B = 0 }},
		{"Sampler.Period", func(c *arch.Config) { c.Sampler.Period = 0 }},
		{"Sampler.ConventionalSets", func(c *arch.Config) { c.Sampler.ConventionalSets = 0 }},
		{"Sampler.ReferenceSets", func(c *arch.Config) { c.Sampler.ReferenceSets = 0 }},
		{"Sampler.ExplorerSets", func(c *arch.Config) { c.Sampler.ExplorerSets = 0 }},
	}
	core := []struct {
		name string
		zero func(c *cpu.Config)
	}{
		{"IssueWidth", func(c *cpu.Config) { c.IssueWidth = 0 }},
		{"Window", func(c *cpu.Config) { c.Window = 0 }},
		{"MSHRs", func(c *cpu.Config) { c.MSHRs = 0 }},
		{"Quantum", func(c *cpu.Config) { c.Quantum = 0 }},
	}
	for machine, cfg := range map[string]arch.Config{"full": arch.DefaultConfig(), "scaled": arch.ScaledConfig()} {
		base := DefaultRunConfig("esp-nuca", "apache")
		base.System = cfg
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: default config refused: %v", machine, err)
		}
		for _, f := range system {
			rc := base
			f.zero(&rc.System)
			if rc.System.Validate() == nil {
				t.Errorf("%s: arch.Config.Validate accepts zero %s", machine, f.name)
			}
		}
		for _, f := range core {
			rc := base
			f.zero(&rc.Core)
			if rc.Validate() == nil {
				t.Errorf("%s: RunConfig.Validate accepts zero core %s", machine, f.name)
			}
		}
	}
}

// TestTable2 checks that Table 2's columns are the full and the scaled
// constructors' values and that the machines differ only in capacity.
func TestTable2(t *testing.T) {
	tab := Table2()
	if len(tab.Columns) != 2 || len(tab.Notes) == 0 {
		t.Fatalf("Table 2 has columns %v and %d notes", tab.Columns, len(tab.Notes))
	}
	row := map[string][]float64{}
	for _, r := range tab.Rows {
		row[r.Label] = r.Values
	}
	core := DefaultRunConfig("", "").Core
	for i, c := range []arch.Config{arch.DefaultConfig(), arch.ScaledConfig()} {
		for label, want := range map[string]int{
			"cores":        c.Cores,
			"window":       core.Window,
			"L1 KB":        c.L1.Bytes / 1024,
			"L1 cycles":    int(c.L1.Latency),
			"L2 KB":        c.L2Lines() * c.BlockBytes / 1024,
			"bank cycles":  int(c.BankLatency),
			"bank tag cyc": int(c.TagLatency),
			"hop cycles":   int(c.NoC.HopLatency),
			"DRAM cycles":  int(c.DRAM.Latency),
			"period":       c.Sampler.Period,
		} {
			if got := row[label]; len(got) != 2 || got[i] != float64(want) {
				t.Errorf("%s %s = %v, want %d", tab.Columns[i], label, got, want)
			}
		}
	}
	var differ []string
	for _, r := range tab.Rows {
		if r.Values[0] != r.Values[1] {
			differ = append(differ, r.Label)
		}
	}
	if !reflect.DeepEqual(differ, []string{"L1 KB", "L2 KB"}) {
		t.Errorf("full and scaled machines differ in %v, want only L1 KB and L2 KB", differ)
	}
}

// TestPaperShapes verifies the qualitative results the reproduction must
// preserve (see DESIGN.md §4). It is the repository's headline regression
// test; run without -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	perf := func(archName, wl string) float64 {
		rc := DefaultRunConfig(archName, wl)
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := workload.ByName(wl)
		return res.Performance(spec.Kind)
	}

	// Transactional (Fig. 8): ESP-NUCA beats shared; private trails.
	sharedA := perf("shared", "apache")
	if esp := perf("esp-nuca", "apache"); esp < sharedA*1.02 {
		t.Errorf("apache: esp-nuca %.3f not above shared %.3f", esp, sharedA)
	}
	if priv := perf("private", "apache"); priv > sharedA {
		t.Errorf("apache: private %.3f above shared %.3f", priv, sharedA)
	}

	// Half-rate low-utility (Fig. 9): private far below shared on art.
	sharedArt := perf("shared", "art-4")
	if priv := perf("private", "art-4"); priv > sharedArt*0.8 {
		t.Errorf("art-4: private %.3f not well below shared %.3f", priv, sharedArt)
	}

	// Cache-friendly half-rate (Fig. 9): private above shared on gzip.
	sharedGz := perf("shared", "gzip-4")
	if priv := perf("private", "gzip-4"); priv < sharedGz {
		t.Errorf("gzip-4: private %.3f below shared %.3f", priv, sharedGz)
	}

	// NAS (Fig. 10): ESP-NUCA at least matches shared; private ahead of
	// shared.
	sharedLU := perf("shared", "LU")
	if esp := perf("esp-nuca", "LU"); esp < sharedLU {
		t.Errorf("LU: esp-nuca %.3f below shared %.3f", esp, sharedLU)
	}
	if priv := perf("private", "LU"); priv < sharedLU {
		t.Errorf("LU: private %.3f below shared %.3f", priv, sharedLU)
	}

	// Hybrid isolation (Fig. 9): shared is the worst alternative on
	// mcf-gzip.
	sharedMG := perf("shared", "mcf-gzip")
	for _, a := range []string{"private", "esp-nuca", "cc"} {
		if p := perf(a, "mcf-gzip"); p < sharedMG {
			t.Errorf("mcf-gzip: %s %.3f below shared %.3f", a, p, sharedMG)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{
		Columns: []string{"a", "b,c"},
		Rows:    []TableRow{{Label: "x,y", Values: []float64{1, 2.5}}},
	}
	csv := tab.CSV()
	want := "label,a,b;c\nx;y,1,2.5\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
