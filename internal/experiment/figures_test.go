package experiment

import (
	"strings"
	"sync"
	"testing"

	"espnuca/internal/arch"
)

// tinyOptions keep figure-structure tests fast; the shapes themselves
// are validated by TestPaperShapes and the benchmark harness.
func tinyOptions() Options {
	return Options{
		Seeds:        []uint64{1},
		Warmup:       8_000,
		Instructions: 4_000,
		System:       arch.ScaledConfig(),
	}
}

// tinyEval is one evaluation of Figures 6, 7 and 8 at tinyOptions, which
// the structure tests of those figures share: the three read the same
// cells.
var tinyEval struct {
	once sync.Once
	tabs []Table
	err  error
}

// tinyFigure returns Figure id (6, 7 or 8) from tinyEval.
func tinyFigure(t *testing.T, id int) Table {
	t.Helper()
	tinyEval.once.Do(func() { tinyEval.tabs, tinyEval.err = Evaluate([]string{"6", "7", "8"}, tinyOptions()) })
	if tinyEval.err != nil {
		t.Fatal(tinyEval.err)
	}
	return tinyEval.tabs[id-6]
}

func TestFigure4Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run")
	}
	tab, err := Figure4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (8 NAS + 4 transactional)", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 2 {
			t.Fatalf("row %s has %d series", r.Label, len(r.Values))
		}
		for _, v := range r.Values {
			if v < 0.3 || v > 3 {
				t.Fatalf("row %s: normalized value %g implausible", r.Label, v)
			}
		}
	}
	if !strings.Contains(tab.String(), "Figure 4") {
		t.Fatal("render missing figure id")
	}
}

func TestFigure6Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run")
	}
	tab := tinyFigure(t, 6)
	// 4 workloads x 9 architectures.
	if len(tab.Rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 7 {
			t.Fatalf("row %s has %d columns, want 7", r.Label, len(r.Values))
		}
		sum := 0.0
		for _, v := range r.Values[:6] {
			sum += v
		}
		total := r.Values[6]
		if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("row %s: components sum %g != total %g", r.Label, sum, total)
		}
	}
}

func TestFigure7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run")
	}
	tab := tinyFigure(t, 7)
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 architectures", len(tab.Rows))
	}
	// The shared row is the normalization base: both values 1.0.
	found := false
	for _, r := range tab.Rows {
		if r.Label == "shared" {
			found = true
			for _, v := range r.Values {
				if v < 0.999 || v > 1.001 {
					t.Fatalf("shared normalized to %g, want 1.0", v)
				}
			}
		}
	}
	if !found {
		t.Fatal("no shared row")
	}
}

func TestFigure8Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run")
	}
	tab := tinyFigure(t, 8)
	if len(tab.Rows) != 5 { // 4 workloads + GEOMEAN
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last.Label != "GEOMEAN" {
		t.Fatalf("summary row label %q", last.Label)
	}
	if len(tab.Notes) == 0 {
		t.Fatal("no variance notes emitted")
	}
	// Shared column must be exactly 1 on every workload row.
	for _, r := range tab.Rows[:4] {
		if r.Values[0] < 0.999 || r.Values[0] > 1.001 {
			t.Fatalf("row %s shared = %g", r.Label, r.Values[0])
		}
	}
	// CC best >= avg >= worst on every workload row.
	for _, r := range tab.Rows[:4] {
		avg, best, worst := r.Values[4], r.Values[5], r.Values[6]
		if best < avg || avg < worst {
			t.Fatalf("row %s: CC avg/best/worst = %g/%g/%g out of order", r.Label, avg, best, worst)
		}
	}
}

// TestAllPlanRunsEachConfigOnce evaluates -all's plan, Figures 4-10 and
// the §6 report, through a stub RunFunc, so nothing is simulated. Every
// distinct simulation runs exactly once: 224 at one seed, where one
// matrix per figure ran 342. -all assembles 246 cells, but each
// transactional, multiprogrammed and NAS workload's CC00 cell is its
// private cell (arch.Simulation), 22 cells that take their results from
// that run. The §6 report adds no run to it, as it reads the cells of
// Figures 8-10, and the §5.2 sweep adds 14 runs and cells, as its default
// esp-nuca cells on apache and CG are Figures 8 and 10's. A variant label
// names one configuration in every artifact, which is what lets
// artifacts share cells by label.
func TestAllPlanRunsEachConfigOnce(t *testing.T) {
	all := []string{"4", "5", "6", "7", "8", "9", "10", "stability"}
	for _, plan := range []struct {
		names       []string
		runs, cells int
	}{
		{all[:7], 224, 246},
		{all, 224, 246},
		{append(all[:7:7], "params", "stability"), 238, 260},
	} {
		var mu sync.Mutex
		calls := map[string]int{}
		stub := func(RunConfig) (RunResult, error) {
			return RunResult{Throughput: 1, MeanIPC: 1, AvgAccessTime: 1, OffChipAccesses: 1, OnChipLatency: 1}, nil
		}
		o := QuickOptions()
		o.Parallelism = 2
		o.RunFunc = func(rc RunConfig) (RunResult, error) {
			key, err := rc.CanonicalKey()
			if err != nil {
				return RunResult{}, err
			}
			mu.Lock()
			calls[key]++
			mu.Unlock()
			return stub(rc)
		}
		o.Progress = func(done, total int) {
			if total != plan.runs {
				t.Errorf("%v: progress total %d, want %d", plan.names, total, plan.runs)
			}
		}
		tabs, err := Evaluate(plan.names, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(tabs) != len(plan.names) {
			t.Fatalf("%d tables for %d artifacts", len(tabs), len(plan.names))
		}
		for _, tab := range tabs {
			if tab.ID == "§5.2" && len(tab.Rows) != 16 {
				t.Errorf("§5.2 sweep has %d rows, want 16 (2 workloads x 8 settings)", len(tab.Rows))
			}
		}
		if len(calls) != plan.runs {
			t.Errorf("%v: %d distinct configs, want %d", plan.names, len(calls), plan.runs)
		}
		for key, n := range calls {
			if n != 1 {
				t.Errorf("config %.16s… ran %d times", key, n)
			}
		}

		// Every cell is assembled, each under its own Arch.
		arts, err := lookup(plan.names)
		if err != nil {
			t.Fatal(err)
		}
		o.RunFunc, o.Progress = stub, nil
		m := o.plan(arts)
		res, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for _, v := range m.Variants {
			for _, cell := range res[v.Label] {
				cells++
				if len(cell.Runs) != 1 || cell.Runs[0].Arch != v.Arch {
					t.Errorf("%s cell holds %+v", v.Label, cell.Runs)
				}
			}
		}
		if cells != plan.cells {
			t.Errorf("%v: %d cells assembled, want %d", plan.names, cells, plan.cells)
		}
	}

	// Each label's full cell config, by its key on one workload and seed.
	byLabel, byKey := map[string]string{}, map[string]string{}
	for _, a := range artifacts {
		for _, c := range a.reads {
			for _, v := range c.variants {
				m := NewMatrix([]string{"apache"}, []Variant{v})
				m.Seeds = []uint64{1}
				key, err := m.cellConfig(at{}).CanonicalKey()
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := byLabel[v.Label]; ok && got != key {
					t.Errorf("label %s names two configs", v.Label)
				}
				if got, ok := byKey[key]; ok && got != v.Label {
					t.Errorf("one config is labelled %s and %s", got, v.Label)
				}
				byLabel[v.Label], byKey[key] = key, v.Label
			}
		}
	}
}

// TestTableArtifactsRunNothing checks that Tables 1 and 2 render as
// artifacts from an empty plan: no run and no progress.
func TestTableArtifactsRunNothing(t *testing.T) {
	o := QuickOptions()
	o.RunFunc = func(RunConfig) (RunResult, error) {
		t.Error("a table artifact ran a simulation")
		return RunResult{}, nil
	}
	o.Progress = func(done, total int) { t.Errorf("a table artifact reported progress %d/%d", done, total) }
	tabs, err := Evaluate([]string{"table1", "table2"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if tabs[0].String() != Table1().String() || tabs[1].String() != Table2().String() {
		t.Error("table artifacts differ from Table1 and Table2")
	}
}

// TestTableStringAlignsLabels checks that the label column is as wide as
// the longest label, 12 at least, so every value column lines up.
func TestTableStringAlignsLabels(t *testing.T) {
	for _, tc := range []struct {
		labels []string
		width  int
	}{
		{[]string{"apache", "GEOMEAN"}, 12},
		{[]string{"apache/esp-nuca-ref2exp2", "CG/esp-nuca"}, 24},
	} {
		tab := Table{ID: "T", Title: "t", Columns: []string{"a", "b"}}
		for _, l := range tc.labels {
			tab.Rows = append(tab.Rows, TableRow{Label: l, Values: []float64{1, 22.5}})
		}
		lines := strings.Split(strings.TrimSuffix(tab.String(), "\n"), "\n")[1:]
		for _, line := range lines {
			if len(line) != tc.width+24 {
				t.Errorf("line %q is %d wide, want a %d-wide label column and two 12-wide values", line, len(line), tc.width)
			}
		}
	}
}
