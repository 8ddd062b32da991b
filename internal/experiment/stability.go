package experiment

import (
	"fmt"
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

// Family is one workload suite of the §6 stability study.
type Family struct {
	Name      string
	Workloads []string
}

// StabilityFamilies returns the paper's three suites in reporting order.
func StabilityFamilies() []Family {
	return []Family{
		{"transactional", []string{"apache", "jbb", "oltp", "zeus"}},
		{"multiprogrammed", []string{"art-4", "gcc-4", "gzip-4", "mcf-4", "twolf-4",
			"art-gzip", "gcc-gzip", "gcc-twolf", "mcf-gzip", "mcf-twolf"}},
		{"NAS", []string{"BT", "CG", "FT", "IS", "LU", "MG", "SP", "UA"}},
	}
}

// FamilyStability pairs a family with its computed report.
type FamilyStability struct {
	Family string
	Report StabilityReport
}

// StabilityStudy runs the full §6 comparison — every family's matrix over
// the counterpart + CC variant set — and reduces each to its variance
// report. The per-family matrices share one run budget: o.Progress sees a
// single monotonic done count across the whole study, and o.Parallelism
// bounds the workers each matrix fans out over.
func StabilityStudy(families []Family, o Options) ([]FamilyStability, error) {
	variants := append(CounterpartVariants(), CCFamily()...)
	matrices := make([]Matrix, len(families))
	grand := 0
	for i, fam := range families {
		matrices[i] = o.matrix(fam.Workloads, variants)
		grand += len(fam.Workloads) * len(variants) * len(matrices[i].Seeds)
	}
	meter := newProgressMeter(grand, o.Progress)
	out := make([]FamilyStability, 0, len(families))
	for i, fam := range families {
		res, err := matrices[i].Run(func(done, total int) { meter.tick() })
		if err != nil {
			return nil, fmt.Errorf("stability %s: %w", fam.Name, err)
		}
		rep, err := Stability(res, "esp-nuca", "shared", fam.Workloads,
			[]string{"private", "d-nuca", "asr", "CC70"})
		if err != nil {
			return nil, fmt.Errorf("stability %s: %w", fam.Name, err)
		}
		out = append(out, FamilyStability{Family: fam.Name, Report: rep})
	}
	return out, nil
}

// String renders the report.
func (r StabilityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cross-workload performance variance (%d workloads):\n", len(r.Workloads))
	labels := make([]string, 0, len(r.Variance))
	for l := range r.Variance {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "  %-12s %.5f", l, r.Variance[l])
		if red, ok := r.Reduction[l]; ok {
			fmt.Fprintf(&b, "   (esp-nuca variance %+.0f%% vs this)", -red*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
