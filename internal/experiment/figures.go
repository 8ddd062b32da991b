package experiment

import (
	"fmt"
	"math"
	"slices"
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
	// text, when set, is what String renders: the §6 report keeps its
	// own layout.
	text string
}

// TableRow is one labelled row of values.
type TableRow struct {
	Label  string
	Values []float64
}

// String renders the table as fixed-width text.
func (t Table) String() string {
	if t.text != "" {
		return t.text
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	// The label column is as wide as the longest label, and 12 at least.
	w := 12
	for _, r := range t.Rows {
		w = max(w, len(r.Label))
	}
	fmt.Fprintf(&b, "%-*s", w, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", w, r.Label)
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
	// Parallelism bounds the worker pool the matrix fans its
	// independent simulations out over (0: all cores, 1: serial).
	// Results are deterministic at any setting.
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

// A suite is one of the paper's three workload suites.
type suite struct {
	name      string
	workloads []string
}

// The suites in the §6 report's order, and the variant sets the figures
// read.
var (
	transactional   = suite{"transactional", []string{"apache", "jbb", "oltp", "zeus"}}
	multiprogrammed = suite{"multiprogrammed", []string{"art-4", "gcc-4", "gzip-4", "mcf-4", "twolf-4",
		"art-gzip", "gcc-gzip", "gcc-twolf", "mcf-gzip", "mcf-twolf"}}
	nas    = suite{"NAS", []string{"BT", "CG", "FT", "IS", "LU", "MG", "SP", "UA"}}
	suites = []suite{transactional, multiprogrammed, nas}

	// fig45Workloads is the workload set of Figures 4 and 5.
	fig45Workloads = slices.Concat(nas.workloads, transactional.workloads)
	// fig6Variants is the architecture set of Figures 6 and 7.
	fig6Variants = slices.Concat(archs("shared", "private", "d-nuca", "asr"), CCFamily(), archs("esp-nuca"))
	// perfVariants is the series set of Figures 8-10 and the §6 report.
	perfVariants = append(CounterpartVariants(), CCFamily()...)
	// paramWorkloads are the §5.2 sweep's workloads: a transactional and
	// a NAS one.
	paramWorkloads = []string{"apache", "CG"}
)

// paramSettings are the §5.2 sweep's ESP-NUCA sampler settings: the
// default first (paramsView formats its note from arch.DefaultConfig),
// then one edit of it each.
var paramSettings = []struct {
	label, note string
	edit        func(arch.Config) arch.Config
}{
	{"esp-nuca", "", nil},
	{"esp-nuca-a2", "a=2 (N=7 samples)", func(c arch.Config) arch.Config { c.Sampler.A = 2; return c }},
	{"esp-nuca-a3", "a=3 (N=15 samples)", func(c arch.Config) arch.Config { c.Sampler.A = 3; return c }},
	{"esp-nuca-b6", "b=6", func(c arch.Config) arch.Config { c.Sampler.B = 6; return c }},
	{"esp-nuca-d2", "d=2 (25% slack)", func(c arch.Config) arch.Config { c.Sampler.D = 2; return c }},
	{"esp-nuca-d4", "d=4 (6.25% slack)", func(c arch.Config) arch.Config { c.Sampler.D = 4; return c }},
	{"esp-nuca-conv4", "4 conventional sets", func(c arch.Config) arch.Config { c.Sampler.ConventionalSets = 4; return c }},
	{"esp-nuca-ref2exp2", "2 reference + 2 explorer sets", func(c arch.Config) arch.Config {
		c.Sampler.ReferenceSets, c.Sampler.ExplorerSets = 2, 2
		return c
	}},
}

// paramVariants returns one esp-nuca variant per sampler setting.
func paramVariants() []Variant {
	vs := make([]Variant, len(paramSettings))
	for i, p := range paramSettings {
		vs[i] = Variant{Label: p.label, Arch: "esp-nuca", CCProb: -1, edit: p.edit}
	}
	return vs
}

// archs returns one plain variant per architecture, labelled with its
// name.
func archs(names ...string) []Variant {
	vs := make([]Variant, len(names))
	for i, n := range names {
		vs[i] = V(n, n)
	}
	return vs
}

// An artifact is one of the paper's tables, figures, its §5.2 sweep or
// its §6 report: the (variant, workload) cells it reads and the view
// that renders it from any Results holding them. A variant's label names
// one simulated configuration in every artifact, so artifacts share
// cells by label.
type artifact struct {
	name  string
	reads []cells
	view  func(Results) (Table, error)
}

// cells is every variant on every workload.
type cells struct {
	workloads []string
	variants  []Variant
}

// artifacts are the artifacts Evaluate renders, by name: "table1" and
// "table2" for Tables 1-2 (they read no cells), "4" to "10" for Figures
// 4-10, "params" for the §5.2 sweep and "stability" for the §6 report.
var artifacts = []artifact{
	{"table1", nil, func(Results) (Table, error) { return Table1(), nil }},
	{"table2", nil, func(Results) (Table, error) { return Table2(), nil }},
	{"4", []cells{{fig45Workloads, archs("sp-nuca", "sp-nuca-static", "sp-nuca-shadow")}},
		normalizedView("Figure 4", "SP-NUCA flat-LRU and static partition, normalized to shadow tags",
			[]string{"SP-NUCA", "Static"}, "sp-nuca-shadow", "sp-nuca", "sp-nuca-static")},
	{"5", []cells{{fig45Workloads, archs("sp-nuca", "esp-nuca-flat", "esp-nuca")}},
		normalizedView("Figure 5", "ESP-NUCA flat vs protected LRU, normalized to SP-NUCA",
			[]string{"Flat-LRU", "Protected-LRU"}, "sp-nuca", "esp-nuca-flat", "esp-nuca")},
	{"6", []cells{{transactional.workloads, fig6Variants}}, figure6},
	{"7", []cells{{transactional.workloads, fig6Variants}}, figure7},
	{"8", []cells{{transactional.workloads, perfVariants}}, perfFigure("Figure 8",
		"Shared-cache-normalized performance, transactional workloads", transactional.workloads, "GEOMEAN")},
	{"9", []cells{{multiprogrammed.workloads, perfVariants}}, perfFigure("Figure 9",
		"Shared-cache-normalized performance, multiprogrammed workloads", multiprogrammed.workloads, "GEOMEAN")},
	{"10", []cells{{nas.workloads, perfVariants}}, perfFigure("Figure 10",
		"Shared-cache-normalized performance, NAS Parallel Benchmarks", nas.workloads, "GMEAN")},
	{"params", []cells{{paramWorkloads, paramVariants()}}, paramsView},
	{"stability", []cells{{transactional.workloads, perfVariants}, {multiprogrammed.workloads, perfVariants},
		{nas.workloads, perfVariants}}, stabilityView},
}

// Evaluate renders the named artifacts (see artifacts) in order, from
// one matrix over the union of the cells they read: every cell runs
// once, however many artifacts read it, in a single Matrix.Run that
// reports one progress count, and every view reads the one Results. A
// plan with no cells simulates nothing and reports no progress.
func Evaluate(names []string, o Options) ([]Table, error) {
	arts, err := lookup(names)
	if err != nil {
		return nil, err
	}
	res, err := o.plan(arts).Run(o.Progress)
	if err != nil {
		return nil, err
	}
	tables := make([]Table, len(arts))
	for i, a := range arts {
		if tables[i], err = a.view(res); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// lookup returns the named artifacts.
func lookup(names []string) ([]artifact, error) {
	arts := make([]artifact, len(names))
	for i, name := range names {
		j := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == name })
		if j < 0 {
			return nil, fmt.Errorf("experiment: no artifact %q (table1, table2, figures 4-10, params, stability)", name)
		}
		arts[i] = artifacts[j]
	}
	return arts, nil
}

// plan returns one matrix over the union of the artifacts' cells: each
// variant and workload once, in the order the artifacts first read them,
// and each workload running only the variants read on it. A single
// figure's plan is its own cross product, in its own order.
func (o Options) plan(arts []artifact) Matrix {
	m := NewMatrix(nil, nil)
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
	label := func(l string) int { return slices.IndexFunc(m.Variants, func(v Variant) bool { return v.Label == l }) }
	for _, a := range arts {
		for _, c := range a.reads {
			for _, wl := range c.workloads {
				if !slices.Contains(m.Workloads, wl) {
					m.Workloads = append(m.Workloads, wl)
				}
			}
			for _, v := range c.variants {
				if label(v.Label) < 0 {
					m.Variants = append(m.Variants, v)
				}
			}
		}
	}
	m.only = make([]bool, len(m.Workloads)*len(m.Variants))
	for _, a := range arts {
		for _, c := range a.reads {
			for _, wl := range c.workloads {
				for _, v := range c.variants {
					m.only[slices.Index(m.Workloads, wl)*len(m.Variants)+label(v.Label)] = true
				}
			}
		}
	}
	return m
}

// figure renders one artifact from exactly its own cells.
func figure(name string, o Options) (Table, error) {
	t, err := Evaluate([]string{name}, o)
	if err != nil {
		return Table{}, err
	}
	return t[0], nil
}

// Figure4 renders Figure 4, SP-NUCA's flat LRU and static partition.
func Figure4(o Options) (Table, error) { return figure("4", o) }

// Figure5 renders Figure 5, ESP-NUCA's flat vs protected LRU.
func Figure5(o Options) (Table, error) { return figure("5", o) }

// Figure6 renders Figure 6, the transactional access time decomposition.
func Figure6(o Options) (Table, error) { return figure("6", o) }

// Figure7 renders Figure 7, transactional off-chip accesses and latency.
func Figure7(o Options) (Table, error) { return figure("7", o) }

// Figure8 renders Figure 8, transactional normalized performance.
func Figure8(o Options) (Table, error) { return figure("8", o) }

// Figure9 renders Figure 9, multiprogrammed normalized performance.
func Figure9(o Options) (Table, error) { return figure("9", o) }

// Figure10 renders Figure 10, NAS normalized performance.
func Figure10(o Options) (Table, error) { return figure("10", o) }

// normalizedView is the view of Figures 4 and 5: the series over
// fig45Workloads, each normalized to base.
func normalizedView(id, title string, columns []string, base string, series ...string) func(Results) (Table, error) {
	return func(res Results) (Table, error) {
		t := Table{ID: id, Title: title, Columns: columns}
		for _, wl := range fig45Workloads {
			row := TableRow{Label: wl, Values: make([]float64, len(series))}
			for i, s := range series {
				var err error
				if row.Values[i], _, err = res.Normalized(s, base, wl); err != nil {
					return Table{}, err
				}
			}
			t.Rows = append(t.Rows, row)
		}
		return t, nil
	}
}

// figure6 is Figure 6's view.
func figure6(res Results) (Table, error) {
	t := Table{
		ID:    "Figure 6",
		Title: "Average access time decomposition (cycles per access)",
		Columns: []string{"LocalL1", "RemoteL1", "Loc/PrivL2",
			"RemoteL2", "SharedL2", "OffChip", "Total"},
	}
	for _, wl := range transactional.workloads {
		for _, v := range fig6Variants {
			// The six levels' cycles, then their total.
			runs, vals := res[v.Label][wl].Runs, make([]float64, arch.NumLevels+1)
			for _, r := range runs {
				for l, c := range r.Decomposition {
					vals[l] += c
				}
				vals[arch.NumLevels] += r.AvgAccessTime
			}
			for i := range vals {
				vals[i] /= float64(len(runs))
			}
			t.Rows = append(t.Rows, TableRow{Label: wl + "/" + v.Label, Values: vals})
		}
	}
	return t, nil
}

// figure7 is Figure 7's view.
func figure7(res Results) (Table, error) {
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
	for _, v := range fig6Variants {
		var off, lat float64
		for _, wl := range transactional.workloads {
			offBase := mean("shared", wl, func(r RunResult) float64 { return float64(r.OffChipAccesses) })
			latBase := mean("shared", wl, func(r RunResult) float64 { return r.OnChipLatency })
			off += mean(v.Label, wl, func(r RunResult) float64 { return float64(r.OffChipAccesses) }) / offBase
			lat += mean(v.Label, wl, func(r RunResult) float64 { return r.OnChipLatency }) / latBase
		}
		n := float64(len(transactional.workloads))
		t.Rows = append(t.Rows, TableRow{Label: v.Label, Values: []float64{off / n, lat / n}})
	}
	return t, nil
}

// perfFigure returns the view of a normalized-performance figure (8, 9
// or 10).
func perfFigure(id, title string, workloads []string, summaryLabel string) func(Results) (Table, error) {
	return func(res Results) (Table, error) {
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
}

// paramsView is the §5.2 sweep's view: one row per (workload, setting)
// with the cell's mean performance and its ratio to the default's.
func paramsView(res Results) (Table, error) {
	t := Table{ID: "§5.2", Title: "ESP-NUCA protected-LRU constants, normalized to the default",
		Columns: []string{"perf", "norm"}}
	for _, wl := range paramWorkloads {
		for _, p := range paramSettings {
			norm, _, err := res.Normalized(p.label, "esp-nuca", wl)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, TableRow{Label: wl + "/" + p.label, Values: []float64{res[p.label][wl].Perf.Mean, norm}})
		}
	}
	def := arch.DefaultConfig().Sampler
	t.Notes = []string{fmt.Sprintf("esp-nuca: the default, a=%d b=%d d=%d, %d conventional + %d reference + %d explorer sets",
		def.A, def.B, def.D, def.ConventionalSets, def.ReferenceSets, def.ExplorerSets)}
	for _, p := range paramSettings[1:] {
		t.Notes = append(t.Notes, p.label+": "+p.note)
	}
	return t, nil
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
