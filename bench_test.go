package espnuca

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (DESIGN.md §4 maps each to its experiment). The
// figure benchmarks run the corresponding experiment matrix once per
// iteration at reduced quality (one seed, short quantum) and report the
// headline number of that figure as a custom metric, so
//
//	go test -bench=Figure -benchtime=1x
//
// reproduces the whole evaluation and prints the measured shapes.
// Component benchmarks below them measure the simulator's own hot paths.

import (
	"fmt"
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/experiment"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

func benchOpts() experiment.Options {
	return experiment.QuickOptions()
}

// reportRows makes a figure's table visible in the bench log.
func reportRows(b *testing.B, tab experiment.Table) {
	b.Logf("\n%s", tab)
}

// BenchmarkTable1 regenerates the workload catalog (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiment.Table1()
		if len(tab.Rows) != 22 {
			b.Fatalf("catalog rows = %d", len(tab.Rows))
		}
	}
}

// BenchmarkTable2 builds the full Table 2 machine (construction cost and
// configuration sanity).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := arch.Build("esp-nuca", arch.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if got := sys.Sub().Cfg.L2Lines() * 64; got != 8<<20 {
			b.Fatalf("L2 = %d bytes", got)
		}
	}
}

// BenchmarkFigure4 regenerates SP-NUCA's partitioning comparison
// (flat LRU and static partition vs shadow tags).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: mean flat-LRU performance relative to shadow tags.
		sum := 0.0
		for _, r := range tab.Rows {
			sum += r.Values[0]
		}
		b.ReportMetric(sum/float64(len(tab.Rows)), "flatLRU/shadow")
		reportRows(b, tab)
	}
}

// BenchmarkFigure5 regenerates the ESP-NUCA replacement-policy
// comparison (flat vs protected LRU, normalized to SP-NUCA).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		flat, prot := 0.0, 0.0
		for _, r := range tab.Rows {
			flat += r.Values[0]
			prot += r.Values[1]
		}
		n := float64(len(tab.Rows))
		b.ReportMetric(prot/n, "protected/sp")
		b.ReportMetric(flat/n, "flat/sp")
		reportRows(b, tab)
	}
}

// BenchmarkFigure6 regenerates the access-time decomposition for the
// transactional workloads.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, tab)
	}
}

// BenchmarkFigure7 regenerates the normalized off-chip access and
// on-chip latency comparison.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, tab)
	}
}

func perfFigureBench(b *testing.B, f func(experiment.Options) (experiment.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := f(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1] // the geomean row
		b.ReportMetric(last.Values[len(last.Values)-1], "esp/shared-gmean")
		reportRows(b, tab)
	}
}

// BenchmarkFigure8 regenerates shared-normalized performance for the
// transactional workloads.
func BenchmarkFigure8(b *testing.B) { perfFigureBench(b, experiment.Figure8) }

// BenchmarkFigure9 regenerates shared-normalized performance for the
// multiprogrammed workloads.
func BenchmarkFigure9(b *testing.B) { perfFigureBench(b, experiment.Figure9) }

// BenchmarkFigure10 regenerates shared-normalized performance for the
// NAS suite.
func BenchmarkFigure10(b *testing.B) { perfFigureBench(b, experiment.Figure10) }

// --- Ablations (design-choice benches called out in DESIGN.md) ---

func ablationRun(b *testing.B, archName, wl string, tweak func(arch.System)) float64 {
	b.Helper()
	rc := experiment.DefaultRunConfig(archName, wl)
	rc.Warmup, rc.Instructions = 25_000, 10_000
	sys, err := arch.Build(archName, rc.System)
	if err != nil {
		b.Fatal(err)
	}
	if tweak != nil {
		tweak(sys)
	}
	res, err := experiment.RunOn(rc, sys)
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := workload.ByName(wl)
	return res.Performance(spec.Kind)
}

// BenchmarkAblationESPHelpers attributes ESP-NUCA's gain over SP-NUCA to
// its two helping-block mechanisms: replicas (latency) and victims
// (capacity balance).
func BenchmarkAblationESPHelpers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		baseline := ablationRun(b, "esp-nuca", "apache", nil)
		noReps := ablationRun(b, "esp-nuca", "apache", func(s arch.System) {
			s.(*arch.ESPNUCA).ReplicasOff = true
		})
		noVics := ablationRun(b, "esp-nuca", "mcf-4", nil)
		noVicsOff := ablationRun(b, "esp-nuca", "mcf-4", func(s arch.System) {
			s.(*arch.ESPNUCA).VictimsOff = true
		})
		b.ReportMetric(baseline/noReps, "apache-replica-gain")
		b.ReportMetric(noVics/noVicsOff, "mcf4-victim-gain")
	}
}

// BenchmarkAblationDNUCA attributes D-NUCA's behaviour to migration and
// replication.
func BenchmarkAblationDNUCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := ablationRun(b, "d-nuca", "apache", nil)
		noMig := ablationRun(b, "d-nuca", "apache", func(s arch.System) {
			s.(*arch.DNUCA).MigrationOff = true
		})
		noRep := ablationRun(b, "d-nuca", "apache", func(s arch.System) {
			s.(*arch.DNUCA).ReplicationOff = true
		})
		b.ReportMetric(full/noMig, "migration-gain")
		b.ReportMetric(full/noRep, "replication-gain")
	}
}

// --- Simulator hot-path benchmarks ---

// BenchmarkESPNUCAAccess measures the cost of one ESP-NUCA transaction.
func BenchmarkESPNUCAAccess(b *testing.B) {
	benchAccess(b, "esp-nuca")
}

// BenchmarkSharedAccess measures the cost of one S-NUCA transaction.
func BenchmarkSharedAccess(b *testing.B) {
	benchAccess(b, "shared")
}

func benchAccess(b *testing.B, name string) {
	b.Helper()
	sys, err := arch.Build(name, arch.ScaledConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	var tm sim.Cycle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sys.Access(tm, rng.Intn(8), mem.Line(rng.Intn(4096)), rng.Bool(0.3))
		tm = res.Done
	}
}

// BenchmarkFullRun measures a complete short simulation (the unit the
// figure benches repeat).
func BenchmarkFullRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rc := experiment.DefaultRunConfig("esp-nuca", "apache")
		rc.Warmup, rc.Instructions = 10_000, 5_000
		if _, err := experiment.Run(rc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamNext measures workload generation throughput through
// cpu.InstrSource, the interface call each core makes per instruction:
// on oltp's core 0 and on mcf-4's idle core 7, which keeps retiring
// until the measured cores finish.
func BenchmarkStreamNext(b *testing.B) {
	for _, c := range []struct {
		workload string
		core     int
	}{{"oltp", 0}, {"mcf-4", 7}} {
		b.Run(fmt.Sprintf("%s/core%d", c.workload, c.core), func(b *testing.B) {
			spec, ok := workload.ByName(c.workload)
			if !ok {
				b.Fatalf("unknown workload %s", c.workload)
			}
			cfg := arch.ScaledConfig()
			var src cpu.InstrSource = spec.Bind(cfg.L2Lines(), cfg.L1ILines(), 1).Streams[c.core]
			var mem int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if in := src.Next(); in.IsMem {
					mem++
				}
			}
			b.ReportMetric(float64(mem)/float64(b.N), "mem/instr")
		})
	}
}
