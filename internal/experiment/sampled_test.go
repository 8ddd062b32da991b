package experiment

import (
	"reflect"
	"strings"
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/obs"
)

// sampledGateMaxRelErr is the committed accuracy bound CI holds sampled
// execution to: the Throughput relative error versus a full run, for
// every architecture of the paper's evaluated set (see BENCH_6.json for
// the full-config measurements backing it).
const sampledGateMaxRelErr = 0.05

// sampledQuickRC is a fast sampled configuration for unit tests.
func sampledQuickRC(archName, wl string, k int) RunConfig {
	rc := DefaultRunConfig(archName, wl)
	rc.Warmup = 12_000
	rc.Instructions = 8_000
	rc.SampleWindows = k
	return rc
}

func TestSamplePlans(t *testing.T) {
	cases := []struct {
		warmup, instructions uint64
		k                    int
	}{
		{80_000, 640_000, 8},
		{80_000, 40_000, 1},
		{12_000, 8_000, 4},
		{0, 1_000, 3},
		{5_000, 40_000, 7}, // uneven strata
	}
	for _, c := range cases {
		plans := samplePlans(c.warmup, c.instructions, c.k)
		if len(plans) != c.k {
			t.Fatalf("(%d,%d,%d): %d plans", c.warmup, c.instructions, c.k, len(plans))
		}
		var total uint64
		prevEnd := uint64(0)
		pos := c.warmup
		for i, pl := range plans {
			total += pl.stratum
			if pl.start != pos {
				t.Errorf("(%d,%d,%d) window %d: start %d, want stratum head %d",
					c.warmup, c.instructions, c.k, i, pl.start, pos)
			}
			if pl.measure < 1 || pl.measure > pl.stratum {
				t.Errorf("window %d: measure %d outside [1, stratum=%d]", i, pl.measure, pl.stratum)
			}
			if pl.dwarm > sampleMaxDetailWarm || pl.fwarm > sampleMaxFuncWarm {
				t.Errorf("window %d: warm (%d,%d) exceeds caps", i, pl.fwarm, pl.dwarm)
			}
			pre := pl.start - pl.fwarm - pl.dwarm
			if pre < prevEnd {
				t.Errorf("window %d: warmup reaches back to %d, past the previous window's "+
					"farthest stream position %d (a worker's streams must only move forward)",
					i, pre, prevEnd)
			}
			// The farthest any stream travels in the window: idle cores run
			// to their bounded target past the measured cores'.
			prevEnd = pre + pl.fwarm + sampleIdleWindowFactor*(pl.dwarm+pl.measure)
			if end := pl.start + pl.stratum; prevEnd > end {
				t.Errorf("window %d: idle end %d spills past the stratum end %d", i, prevEnd, end)
			}
			pos += pl.stratum
		}
		if total != c.instructions {
			t.Errorf("(%d,%d,%d): strata sum to %d, want the full budget",
				c.warmup, c.instructions, c.k, total)
		}
	}
}

func TestSampledRunCarriesEstimate(t *testing.T) {
	rc := sampledQuickRC("esp-nuca", "apache", 4)
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil {
		t.Fatal("sampled run returned a nil error bound (RunResult.Sampled)")
	}
	if res.Sampled.Windows != 4 {
		t.Errorf("Windows = %d, want 4", res.Sampled.Windows)
	}
	for name, e := range map[string]float64{
		"Throughput":    res.Sampled.Throughput.Mean,
		"AvgAccessTime": res.Sampled.AvgAccessTime.Mean,
		"L1MissRate":    res.Sampled.L1MissRate.Mean,
	} {
		if e <= 0 {
			t.Errorf("estimate %s mean = %g, want > 0", name, e)
		}
	}
	if n := res.Sampled.Throughput.N; n != 4 {
		t.Errorf("Throughput.N = %d, want one sample per window", n)
	}
	if res.Sampled.Throughput.Mean != res.Throughput {
		t.Errorf("headline Throughput %g != estimate mean %g", res.Throughput, res.Sampled.Throughput.Mean)
	}
	if res.Sampled.Throughput.CI95 <= 0 {
		t.Errorf("CI95 = %g, want > 0 across 4 windows", res.Sampled.Throughput.CI95)
	}

	// The extrapolated retirement total must equal the full run's exactly:
	// each window retires measure instructions per measured core and is
	// scaled by stratum/measure, and the strata tile the budget.
	frc := rc
	frc.SampleWindows = 0
	full, err := Run(frc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != full.Retired {
		t.Errorf("extrapolated Retired = %d, full run = %d", res.Retired, full.Retired)
	}
	if full.Sampled != nil {
		t.Error("full run carries a sampled estimate")
	}
}

// TestSampledParallelDeterminism is the concurrency contract of sampled
// execution: window results are bit-identical whether the windows run
// serially or fan out over workers (uneven chunking included). It is the
// -race smoke test for the concurrent measurement windows.
func TestSampledParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled runs")
	}
	for _, wl := range []string{"apache", "gcc-4"} { // all-core and half-rate (idle cores)
		rc := sampledQuickRC("esp-nuca", wl, 4)
		base, err := runSampled(rc, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 4} {
			got, err := runSampled(rc, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", wl, p, err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("%s: results on %d workers differ from serial:\n got  %+v\n want %+v",
					wl, p, got, base)
			}
		}
	}
}

func TestSampledRejectsBadConfigs(t *testing.T) {
	rc := sampledQuickRC("esp-nuca", "apache", 2)
	rc.Metrics = obs.NewRegistry()
	if _, err := Run(rc); err == nil || !strings.Contains(err.Error(), "telemetry") {
		t.Errorf("telemetry in sampled mode: err = %v, want rejection", err)
	}

	rc = sampledQuickRC("esp-nuca", "apache", 2)
	rc.Instructions = 8 // < k * sampleMeasureShare
	if _, err := Run(rc); err == nil {
		t.Error("undersized budget accepted")
	}

	rc = sampledQuickRC("esp-nuca", "no-such-workload", 2)
	if _, err := Run(rc); err == nil {
		t.Error("unknown workload accepted")
	}

	// A negative window count is an error, not a full run under a key
	// that differs from the full run's.
	rc = sampledQuickRC("esp-nuca", "apache", -1)
	if res, err := Run(rc); err == nil || !strings.Contains(err.Error(), "SampleWindows") {
		t.Errorf("SampleWindows=-1: err = %v (Sampled=%v), want rejection", err, res.Sampled != nil)
	}
	m := NewMatrix([]string{"apache"}, []Variant{V("shared", "shared")})
	m.Seeds, m.Warmup, m.Instructions = []uint64{1}, 12_000, 8_000
	m.SampleWindows = -3
	if _, err := m.Run(nil); err == nil {
		t.Error("matrix with SampleWindows=-3 ran")
	}

	// A caller-built system is one timeline; sampled mode needs a system
	// per window.
	rc = sampledQuickRC("esp-nuca", "apache", 2)
	sys, err := arch.Build(rc.Arch, rc.System)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOn(rc, sys); err == nil {
		t.Error("RunOn accepted a sampled config")
	}
}

func TestSampledMatrixRejectsTelemetry(t *testing.T) {
	m := NewMatrix([]string{"apache"}, []Variant{V("shared", "shared")})
	m.SampleWindows = 2
	m.Obs = &ObsSpec{Dir: t.TempDir()}
	if _, err := m.Run(nil); err == nil {
		t.Fatal("matrix accepted telemetry capture in sampled mode")
	}
}

// TestSampledErrorGate is the CI accuracy gate: at the committed
// BENCH_6.json configuration of the largest catalog workload, the sampled
// estimate's Throughput must stay within sampledGateMaxRelErr of the full
// run for every architecture of the paper's evaluated set (scripts/bench.sh
// sample re-checks the same bound plus the wall-clock speedup).
func TestSampledErrorGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-vs-sampled validation runs")
	}
	rc := DefaultRunConfig("esp-nuca", "FT")
	rc.Warmup = 80_000
	rc.Instructions = 640_000
	rows, err := SampledError(rc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SampleValidationArchs()) {
		t.Fatalf("%d rows, want one per validation architecture", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-9s thr-err %.2f%%  aat-err %.2f%%  off-err %.2f%%  ci95 %.2f%%  speedup %.2fx",
			r.Arch, r.Throughput*100, r.AvgAccessTime*100, r.OffChipAccesses*100,
			r.RelCI95*100, r.FullSeconds/r.SampledSeconds)
		if r.Throughput > sampledGateMaxRelErr {
			t.Errorf("%s: Throughput relative error %.4f exceeds the committed gate %.2f",
				r.Arch, r.Throughput, sampledGateMaxRelErr)
		}
		if r.SampledSeconds >= r.FullSeconds {
			t.Errorf("%s: sampled run (%.2fs) not faster than full (%.2fs)",
				r.Arch, r.SampledSeconds, r.FullSeconds)
		}
	}
}
