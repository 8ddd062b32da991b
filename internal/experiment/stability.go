package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// StabilityReport quantifies the paper's headline stability claims (§6):
// the variance of shared-normalized performance across a workload suite,
// per architecture, and the relative variance reductions ESP-NUCA
// achieves over its counterparts.
type StabilityReport struct {
	// Variance maps an architecture label to its cross-workload variance
	// of shared-normalized performance.
	Variance map[string]float64
	// Reduction maps a counterpart label to ESP-NUCA's variance
	// reduction versus it, as a fraction (0.37 = "37% lower variance").
	Reduction map[string]float64
	Workloads []string
}

// Stability computes the report from a finished Results matrix; esp is
// ESP-NUCA's variant label, baseline the normalization base ("shared").
func Stability(res Results, esp, baseline string, workloads []string, counterparts []string) (StabilityReport, error) {
	rep := StabilityReport{
		Variance:  map[string]float64{},
		Reduction: map[string]float64{},
		Workloads: workloads,
	}
	for _, label := range append([]string{esp}, counterparts...) {
		v, err := res.VarianceNormalized(label, baseline, workloads)
		if err != nil {
			return rep, err
		}
		rep.Variance[label] = v
	}
	espVar := rep.Variance[esp]
	for _, label := range counterparts {
		v := rep.Variance[label]
		if v <= 0 {
			continue
		}
		rep.Reduction[label] = 1 - espVar/v
	}
	return rep, nil
}

// stabilityView renders the §6 report: each suite's variance report
// over the cells of Figures 8-10, one row per (suite, architecture) with
// its variance and ESP-NUCA's reduction versus it (NaN for esp-nuca).
func stabilityView(res Results) (Table, error) {
	t := Table{ID: "§6", Title: "cross-workload variance of shared-normalized performance",
		Columns: []string{"variance", "reduction"}}
	var text strings.Builder
	for _, s := range suites {
		rep, err := Stability(res, "esp-nuca", "shared", s.workloads,
			[]string{"private", "d-nuca", "asr", "CC70"})
		if err != nil {
			return Table{}, fmt.Errorf("stability %s: %w", s.name, err)
		}
		fmt.Fprintf(&text, "== %s ==\n%s\n", s.name, rep)
		for _, l := range rep.labels() {
			red, ok := rep.Reduction[l]
			if !ok {
				red = math.NaN()
			}
			t.Rows = append(t.Rows, TableRow{Label: s.name + "/" + l, Values: []float64{rep.Variance[l], red}})
		}
	}
	t.text = strings.TrimSuffix(text.String(), "\n")
	return t, nil
}

// labels returns the report's architectures, sorted.
func (r StabilityReport) labels() []string {
	labels := make([]string, 0, len(r.Variance))
	for l := range r.Variance {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// String renders the report.
func (r StabilityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cross-workload performance variance (%d workloads):\n", len(r.Workloads))
	for _, l := range r.labels() {
		fmt.Fprintf(&b, "  %-12s %.5f", l, r.Variance[l])
		if red, ok := r.Reduction[l]; ok {
			fmt.Fprintf(&b, "   (esp-nuca variance %+.0f%% vs this)", -red*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
