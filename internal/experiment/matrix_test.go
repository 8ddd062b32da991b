package experiment

import (
	"math"
	"strings"
	"testing"

	"espnuca/internal/stats"
)

// fakeResults builds a Results table from variant -> workload -> mean
// performance, with a small CI so normalization math stays simple.
func fakeResults(perf map[string]map[string]float64) Results {
	out := Results{}
	for v, wls := range perf {
		out[v] = map[string]Cell{}
		for wl, mean := range wls {
			out[v][wl] = Cell{Perf: stats.Summary{Mean: mean}}
		}
	}
	return out
}

// ccResults covers the full CC family plus a shared baseline for one
// workload, with the CC00 cell best and CC100 worst.
func ccResults(wl string) Results {
	perf := map[string]map[string]float64{
		"shared": {wl: 2.0},
	}
	for i, v := range CCFamily() {
		perf[v.Label] = map[string]float64{wl: 2.0 + 0.5*float64(3-i) - 0.5*float64(i)}
	}
	return fakeResults(perf)
}

func TestCCAggregate(t *testing.T) {
	r := ccResults("apache")
	avg, best, worst, err := r.CCAggregate("shared", "apache")
	if err != nil {
		t.Fatal(err)
	}
	// Cells are 3.5, 2.5, 1.5, 0.5 against baseline 2.0.
	if want := 1.0; math.Abs(avg-want) > 1e-12 {
		t.Errorf("avg = %g, want %g", avg, want)
	}
	if want := 1.75; math.Abs(best-want) > 1e-12 {
		t.Errorf("best = %g, want %g", best, want)
	}
	if want := 0.25; math.Abs(worst-want) > 1e-12 {
		t.Errorf("worst = %g, want %g", worst, want)
	}
}

func TestCCAggregateErrorPaths(t *testing.T) {
	r := ccResults("apache")

	// A workload none of the CC cells have.
	if _, _, _, err := r.CCAggregate("shared", "nosuch"); err == nil {
		t.Error("missing workload accepted, want error")
	} else if !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("error %q does not name the missing workload", err)
	}

	// A baseline variant that was never run.
	if _, _, _, err := r.CCAggregate("ghost", "apache"); err == nil {
		t.Error("missing baseline variant accepted, want error")
	}

	// Drop one CC family member: the aggregate must refuse rather than
	// silently average the remaining three.
	delete(r, CCFamily()[2].Label)
	if _, _, _, err := r.CCAggregate("shared", "apache"); err == nil {
		t.Error("incomplete CC family accepted, want error")
	}
}

func TestVarianceNormalized(t *testing.T) {
	r := fakeResults(map[string]map[string]float64{
		"shared":   {"apache": 2.0, "oltp": 4.0},
		"esp-nuca": {"apache": 3.0, "oltp": 4.0},
	})
	got, err := r.VarianceNormalized("esp-nuca", "shared", []string{"apache", "oltp"})
	if err != nil {
		t.Fatal(err)
	}
	// Normalized values 1.5 and 1.0 -> sample variance 0.125.
	if want := 0.125; math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %g, want %g", got, want)
	}
}

func TestVarianceNormalizedErrorPaths(t *testing.T) {
	r := fakeResults(map[string]map[string]float64{
		"shared":   {"apache": 2.0},
		"esp-nuca": {"apache": 3.0},
		"zeroed":   {"apache": 0.0},
	})

	// Empty workload slice: a variance over nothing is meaningless and
	// must not read as "perfectly stable".
	if _, err := r.VarianceNormalized("esp-nuca", "shared", nil); err == nil {
		t.Error("empty workload slice accepted, want error")
	}
	if _, err := r.VarianceNormalized("esp-nuca", "shared", []string{}); err == nil {
		t.Error("zero-length workload slice accepted, want error")
	}

	// Unknown variant and unknown workload.
	if _, err := r.VarianceNormalized("ghost", "shared", []string{"apache"}); err == nil {
		t.Error("missing variant accepted, want error")
	}
	if _, err := r.VarianceNormalized("esp-nuca", "shared", []string{"apache", "nosuch"}); err == nil {
		t.Error("missing workload accepted, want error")
	}
	if _, err := r.VarianceNormalized("esp-nuca", "ghost", []string{"apache"}); err == nil {
		t.Error("missing baseline accepted, want error")
	}

	// Zero baseline performance must surface, not divide to +Inf.
	if _, err := r.VarianceNormalized("esp-nuca", "zeroed", []string{"apache"}); err == nil {
		t.Error("zero baseline accepted, want error")
	}
}

// TestCellConfigAllocs checks that a cell's configuration is built
// without a heap allocation: Matrix.Run builds one per cell, and
// Validate one per cell too.
func TestCellConfigAllocs(t *testing.T) {
	m := NewMatrix([]string{"apache", "mcf-4"}, append(CounterpartVariants(), CCFamily()...))
	order := m.order()
	var rc RunConfig
	if allocs := testing.AllocsPerRun(100, func() {
		for _, c := range order {
			rc = m.cellConfig(c)
		}
	}); allocs != 0 {
		t.Errorf("cellConfig allocates %.1f times per matrix", allocs)
	}
	if rc.Arch != "cc" || rc.Workload != "mcf-4" || rc.Seed != 3 || rc.System.CCProbability != 1 || rc.Core.Quantum == 0 {
		t.Errorf("last cell config = %s/%s seed %d CC %v core %+v", rc.Arch, rc.Workload, rc.Seed, rc.System.CCProbability, rc.Core)
	}
}
