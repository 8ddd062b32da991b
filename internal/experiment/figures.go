package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"espnuca/internal/arch"
	"espnuca/internal/stats"
	"espnuca/internal/workload"
)

// Table is a rendered experiment result: one row per workload (or
// summary), one column per series, matching a figure in the paper.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []TableRow
	Notes   []string
}

// TableRow is one labelled row of values.
type TableRow struct {
	Label  string
	Values []float64
}

// String renders the table as fixed-width text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-12s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%12.3f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tune figure regeneration cost.
type Options struct {
	Seeds        []uint64
	Warmup       uint64
	Instructions uint64
	System       arch.Config
	Progress     func(done, total int)
	// Parallelism bounds the worker pool the underlying matrices fan
	// their independent simulations out over (0: all cores,
	// 1: serial). Results are deterministic at any setting.
	Parallelism int
	// Obs, when non-nil, captures per-run telemetry files (see ObsSpec).
	Obs *ObsSpec
	// RunFunc, when non-nil, substitutes Run for every independent
	// simulation (see Matrix.RunFunc); the result cache plugs in here.
	RunFunc func(RunConfig) (RunResult, error)
}

// DefaultOptions is the full-quality setting used by cmd/espsweep: the
// budgets, seeds and system of NewMatrix.
func DefaultOptions() Options {
	m := NewMatrix(nil, nil)
	return Options{Seeds: m.Seeds, Warmup: m.Warmup, Instructions: m.Instructions, System: m.System}
}

// QuickOptions is a reduced-cost setting for benchmarks and smoke tests.
func QuickOptions() Options {
	return Options{Seeds: []uint64{1}, Warmup: 25_000, Instructions: 10_000, System: arch.ScaledConfig()}
}

func (o Options) matrix(workloads []string, variants []Variant) Matrix {
	m := NewMatrix(workloads, variants)
	if len(o.Seeds) > 0 {
		m.Seeds = o.Seeds
	}
	if o.Warmup > 0 {
		m.Warmup = o.Warmup
	}
	if o.Instructions > 0 {
		m.Instructions = o.Instructions
	}
	m.System = o.System
	m.Parallelism = o.Parallelism
	m.Obs = o.Obs
	m.RunFunc = o.RunFunc
	return m
}

// fig45Workloads is the 12-workload set of Figures 4 and 5 (NAS suite +
// transactional suite).
func fig45Workloads() []string {
	return []string{"BT", "CG", "FT", "IS", "LU", "MG", "SP", "UA", "apache", "jbb", "oltp", "zeus"}
}

func transactionalWorkloads() []string { return []string{"apache", "jbb", "oltp", "zeus"} }

func multiprogrammedWorkloads() []string {
	return []string{"art-4", "gcc-4", "gzip-4", "mcf-4", "twolf-4",
		"art-gzip", "gcc-gzip", "gcc-twolf", "mcf-gzip", "mcf-twolf"}
}

func nasWorkloads() []string { return []string{"BT", "CG", "FT", "IS", "LU", "MG", "SP", "UA"} }

// Figure4 regenerates "Dynamic partitioning in SP-NUCA": SP-NUCA
// (flat LRU) and the static partition, normalized to shadow tags.
func Figure4(o Options) (Table, error) {
	m := o.matrix(fig45Workloads(), []Variant{
		V("sp-nuca", "sp-nuca"),
		V("static", "sp-nuca-static"),
		V("shadow", "sp-nuca-shadow"),
	})
	res, err := m.Run(o.Progress)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "Figure 4",
		Title:   "SP-NUCA flat-LRU and static partition, normalized to shadow tags",
		Columns: []string{"SP-NUCA", "Static"},
	}
	for _, wl := range m.Workloads {
		flat, _, err := res.Normalized("sp-nuca", "shadow", wl)
		if err != nil {
			return Table{}, err
		}
		static, _, err := res.Normalized("static", "shadow", wl)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, TableRow{Label: wl, Values: []float64{flat, static}})
	}
	return t, nil
}

// Figure5 regenerates "ESP-NUCA replacement policies normalized with
// SP-NUCA": flat LRU vs protected LRU.
func Figure5(o Options) (Table, error) {
	m := o.matrix(fig45Workloads(), []Variant{
		V("sp-nuca", "sp-nuca"),
		V("flat", "esp-nuca-flat"),
		V("protected", "esp-nuca"),
	})
	res, err := m.Run(o.Progress)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "Figure 5",
		Title:   "ESP-NUCA flat vs protected LRU, normalized to SP-NUCA",
		Columns: []string{"Flat-LRU", "Protected-LRU"},
	}
	for _, wl := range m.Workloads {
		flat, _, err := res.Normalized("flat", "sp-nuca", wl)
		if err != nil {
			return Table{}, err
		}
		prot, _, err := res.Normalized("protected", "sp-nuca", wl)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, TableRow{Label: wl, Values: []float64{flat, prot}})
	}
	return t, nil
}

// fig6Variants is the architecture set of Figures 6 and 7.
func fig6Variants() []Variant {
	vs := []Variant{V("shared", "shared"), V("private", "private"),
		V("d-nuca", "d-nuca"), V("asr", "asr")}
	vs = append(vs, CCFamily()...)
	return append(vs, V("esp-nuca", "esp-nuca"))
}

// Figure6 regenerates the average access time decomposition for the
// transactional workloads: one row per (workload, architecture), columns
// = the six latency components in cycles.
func Figure6(o Options) (Table, error) {
	m := o.matrix(transactionalWorkloads(), fig6Variants())
	res, err := m.Run(o.Progress)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "Figure 6",
		Title: "Average access time decomposition (cycles per access)",
		Columns: []string{"LocalL1", "RemoteL1", "Loc/PrivL2",
			"RemoteL2", "SharedL2", "OffChip", "Total"},
	}
	for _, wl := range m.Workloads {
		for _, v := range fig6Variants() {
			cell := res[v.Label][wl]
			var dec [arch.NumLevels]float64
			var tot float64
			for _, r := range cell.Runs {
				for l := 0; l < int(arch.NumLevels); l++ {
					dec[l] += r.Decomposition[l]
				}
				tot += r.AvgAccessTime
			}
			n := float64(len(cell.Runs))
			vals := make([]float64, 0, 7)
			for l := 0; l < int(arch.NumLevels); l++ {
				vals = append(vals, dec[l]/n)
			}
			vals = append(vals, tot/n)
			t.Rows = append(t.Rows, TableRow{Label: wl + "/" + v.Label, Values: vals})
		}
	}
	return t, nil
}

// Figure7 regenerates the normalized off-chip access count and on-chip
// latency for transactional workloads (averaged over the suite, per
// architecture, normalized to shared).
func Figure7(o Options) (Table, error) {
	m := o.matrix(transactionalWorkloads(), fig6Variants())
	res, err := m.Run(o.Progress)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "Figure 7",
		Title:   "Off-chip accesses and on-chip latency, normalized to shared",
		Columns: []string{"OffChipAcc", "OnChipLat"},
	}
	mean := func(label, wl string, f func(RunResult) float64) float64 {
		cell := res[label][wl]
		s := 0.0
		for _, r := range cell.Runs {
			s += f(r)
		}
		return s / float64(len(cell.Runs))
	}
	for _, v := range fig6Variants() {
		var off, lat float64
		for _, wl := range m.Workloads {
			offBase := mean("shared", wl, func(r RunResult) float64 { return float64(r.OffChipAccesses) })
			latBase := mean("shared", wl, func(r RunResult) float64 { return r.OnChipLatency })
			off += mean(v.Label, wl, func(r RunResult) float64 { return float64(r.OffChipAccesses) }) / offBase
			lat += mean(v.Label, wl, func(r RunResult) float64 { return r.OnChipLatency }) / latBase
		}
		n := float64(len(m.Workloads))
		t.Rows = append(t.Rows, TableRow{Label: v.Label, Values: []float64{off / n, lat / n}})
	}
	return t, nil
}

// perfFigure regenerates a normalized-performance figure (8, 9 or 10).
func perfFigure(o Options, id, title string, workloads []string, summaryLabel string) (Table, error) {
	variants := append(CounterpartVariants(), CCFamily()...)
	m := o.matrix(workloads, variants)
	res, err := m.Run(o.Progress)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    id,
		Title: title,
		Columns: []string{"shared", "private", "d-nuca", "asr",
			"cc-avg", "cc-best", "cc-worst", "esp-nuca"},
	}
	series := []string{"shared", "private", "d-nuca", "asr"}
	perWl := map[string][]float64{}
	for _, wl := range workloads {
		row := TableRow{Label: wl}
		for _, sName := range series {
			n, _, err := res.Normalized(sName, "shared", wl)
			if err != nil {
				return Table{}, err
			}
			row.Values = append(row.Values, n)
			perWl[sName] = append(perWl[sName], n)
		}
		avg, best, worst, err := res.CCAggregate("shared", wl)
		if err != nil {
			return Table{}, err
		}
		row.Values = append(row.Values, avg, best, worst)
		perWl["cc-avg"] = append(perWl["cc-avg"], avg)
		esp, _, err := res.Normalized("esp-nuca", "shared", wl)
		if err != nil {
			return Table{}, err
		}
		row.Values = append(row.Values, esp)
		perWl["esp-nuca"] = append(perWl["esp-nuca"], esp)
		t.Rows = append(t.Rows, row)
	}

	// Summary row: geomean of normalized performance.
	sum := TableRow{Label: summaryLabel}
	for _, sName := range []string{"shared", "private", "d-nuca", "asr"} {
		g, err := res.GeoMeanNormalized(sName, "shared", workloads)
		if err != nil {
			return Table{}, err
		}
		sum.Values = append(sum.Values, g)
	}
	// CC summary over the per-workload aggregates.
	gm := func(vals []float64) float64 {
		p := 1.0
		for _, v := range vals {
			p *= v
		}
		n := float64(len(vals))
		return pow(p, 1/n)
	}
	sum.Values = append(sum.Values, gm(perWl["cc-avg"]), 0, 0)
	ge, err := res.GeoMeanNormalized("esp-nuca", "shared", workloads)
	if err != nil {
		return Table{}, err
	}
	sum.Values = append(sum.Values, ge)
	t.Rows = append(t.Rows, sum)

	// Stability: variance of normalized performance across workloads.
	names := []string{"d-nuca", "asr", "cc-avg", "esp-nuca"}
	sort.Strings(names)
	for _, n := range names {
		v := stats.Variance(perWl[n])
		t.Notes = append(t.Notes, fmt.Sprintf("variance(%s) = %.5f", n, v))
	}
	return t, nil
}

// Figure8 regenerates shared-normalized performance for transactional
// workloads.
func Figure8(o Options) (Table, error) {
	return perfFigure(o, "Figure 8",
		"Shared-cache-normalized performance, transactional workloads",
		transactionalWorkloads(), "GEOMEAN")
}

// Figure9 regenerates shared-normalized performance for multiprogrammed
// workloads.
func Figure9(o Options) (Table, error) {
	return perfFigure(o, "Figure 9",
		"Shared-cache-normalized performance, multiprogrammed workloads",
		multiprogrammedWorkloads(), "GEOMEAN")
}

// Figure10 regenerates shared-normalized performance for the NAS suite.
func Figure10(o Options) (Table, error) {
	return perfFigure(o, "Figure 10",
		"Shared-cache-normalized performance, NAS Parallel Benchmarks",
		nasWorkloads(), "GMEAN")
}

// Table1 renders the workload catalog.
func Table1() Table {
	t := Table{ID: "Table 1", Title: "Workloads under study", Columns: []string{"kind", "cores"}}
	for _, s := range workload.Catalog() {
		t.Rows = append(t.Rows, TableRow{Label: s.Name, Values: []float64{float64(s.Kind), float64(s.ActiveCores().Len())}})
	}
	return t
}

// Table2 renders the simulated machine (paper Table 2): one column for
// the full machine, arch.DefaultConfig, and one for the capacity-scaled
// machine the figures run, arch.ScaledConfig, both with
// DefaultRunConfig's core. Every value is read from those constructors.
func Table2() Table {
	core := DefaultRunConfig("", "").Core
	full, scaled := arch.DefaultConfig(), arch.ScaledConfig()
	rows := []struct {
		label string
		of    func(c arch.Config) int
	}{
		{"cores", func(c arch.Config) int { return c.Cores }},
		{"issue width", func(arch.Config) int { return core.IssueWidth }},
		{"window", func(arch.Config) int { return core.Window }},
		{"MSHRs", func(arch.Config) int { return core.MSHRs }},
		{"L1 KB", func(c arch.Config) int { return c.L1.Bytes / 1024 }},
		{"L1 ways", func(c arch.Config) int { return c.L1.Ways }},
		{"L1 block B", func(c arch.Config) int { return c.L1.BlockBytes }},
		{"L1 cycles", func(c arch.Config) int { return int(c.L1.Latency) }},
		{"L1 tag cyc", func(c arch.Config) int { return int(c.L1.TagLatency) }},
		{"L2 KB", func(c arch.Config) int { return c.L2Lines() * c.BlockBytes / 1024 }},
		{"L2 banks", func(c arch.Config) int { return c.Banks }},
		{"L2 ways", func(c arch.Config) int { return c.Ways }},
		{"L2 block B", func(c arch.Config) int { return c.BlockBytes }},
		{"bank cycles", func(c arch.Config) int { return int(c.BankLatency) }},
		{"bank tag cyc", func(c arch.Config) int { return int(c.TagLatency) }},
		{"mesh cols", func(c arch.Config) int { return c.NoC.Cols }},
		{"mesh rows", func(c arch.Config) int { return c.NoC.Rows }},
		{"hop cycles", func(c arch.Config) int { return int(c.NoC.HopLatency) }},
		{"link bits", func(c arch.Config) int { return c.NoC.LinkBytes * 8 }},
		{"mem ctrls", func(c arch.Config) int { return c.DRAM.Channels }},
		{"DRAM cycles", func(c arch.Config) int { return int(c.DRAM.Latency) }},
		{"DRAM ival", func(c arch.Config) int { return int(c.DRAM.Interval) }},
		{"sampler a", func(c arch.Config) int { return int(c.Sampler.A) }},
		{"sampler b", func(c arch.Config) int { return int(c.Sampler.B) }},
		{"sampler d", func(c arch.Config) int { return int(c.Sampler.D) }},
		{"period", func(c arch.Config) int { return c.Sampler.Period }},
		{"conv sets", func(c arch.Config) int { return c.Sampler.ConventionalSets }},
		{"ref sets", func(c arch.Config) int { return c.Sampler.ReferenceSets }},
		{"explore sets", func(c arch.Config) int { return c.Sampler.ExplorerSets }},
	}
	t := Table{ID: "Table 2", Title: "main simulation parameters", Columns: []string{"full", "scaled"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, TableRow{Label: r.label, Values: []float64{float64(r.of(full)), float64(r.of(scaled))}})
	}
	t.Notes = []string{
		"L1 KB is each of a core's split I and D caches; latencies are in core cycles",
		fmt.Sprintf("scaled keeps every latency, way count and block size and cuts capacity: "+
			"%d of %d L2 sets per bank and %d of %d L1 bytes, so the synthetic workloads "+
			"reach the paper's capacity regimes within short runs",
			scaled.SetsPerBank, full.SetsPerBank, scaled.L1.Bytes, full.L1.Bytes),
	}
	return t
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// CSV renders the table as comma-separated values (header row first),
// for plotting outside the repository.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(c, ",", ";"))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.ReplaceAll(r.Label, ",", ";"))
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
