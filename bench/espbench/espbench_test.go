package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/resultcache"
	"espnuca/internal/service"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

// TestTailPercentile checks the reporting rule: a percentile is reported
// only when at least ten samples lie beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestLog2HistQuantile(t *testing.T) {
	var h log2Hist
	for i := 0; i < 100; i++ {
		h.add(100) // bucket [64, 128)
	}
	h.add(5000) // bucket [4096, 8192)
	if got := h.meanNS(); math.Abs(got-(100*100+5000)/101.0) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if got := h.quantileNS(0.5); got < 64 || got >= 128 {
		t.Errorf("p50 = %v, want within [64, 128)", got)
	}
	if got := h.quantileNS(1); got < 4096 || got > 8192 {
		t.Errorf("p100 = %v, want within [4096, 8192]", got)
	}
}

// topText is `go tool pprof -top` output in the shape the profile
// grouping reads.
const topText = `File: espbench
Type: cpu
Duration: 2.51s, Total samples = 4.80s (191.23%)
Showing nodes accounting for 4.80s, 100% of 4.80s total
      flat  flat%   sum%        cum   cum%
     1.20s 25.00% 25.00%      1.20s 25.00%  runtime.mallocgc
     900ms 18.75% 43.75%      1.50s 31.25%  espnuca/internal/sim.(*Resource).ClaimFor
     600ms 12.50% 56.25%      600ms 12.50%  espnuca/internal/arch.(*lineMap[go.shape.struct { espnuca/internal/arch.shared bool; espnuca/internal/arch.owner int }]).slot (inline)
     500ms 10.42% 66.67%      500ms 10.42%  espnuca/internal/workload.(*Stream).next
     400ms  8.33% 75.00%      400ms  8.33%  espnuca/internal/stats.(*Zipf).Sample
     300ms  6.25% 81.25%      300ms  6.25%  net/http.(*conn).serve
     300ms  6.25% 87.50%      300ms  6.25%  internal/runtime/atomic.(*Uint32).Load
     200ms  4.17% 91.67%      200ms  4.17%  encoding/json.(*encodeState).marshal
     200ms  4.17% 95.83%      200ms  4.17%  syscall.Syscall6
     200ms  4.17%   100%      200ms  4.17%  main.(*timedSystem).Access
`

func TestParseTopGroupsByPackage(t *testing.T) {
	flat, err := parseTop(topText)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"runtime":                   1200 * time.Millisecond,
		"espnuca/internal/sim":      900 * time.Millisecond,
		"espnuca/internal/arch":     600 * time.Millisecond,
		"espnuca/internal/workload": 500 * time.Millisecond,
		"espnuca/internal/stats":    400 * time.Millisecond,
		"net/http":                  300 * time.Millisecond,
		"internal/runtime/atomic":   300 * time.Millisecond,
		"encoding/json":             200 * time.Millisecond,
		"syscall":                   200 * time.Millisecond,
		"main":                      200 * time.Millisecond,
	}
	for pkg, d := range want {
		if flat[pkg] != d {
			t.Errorf("flat[%s] = %v, want %v", pkg, flat[pkg], d)
		}
	}
	if len(flat) != len(want) {
		t.Errorf("packages = %v", flat)
	}
	shares := groupShares(flat)
	for g, want := range map[string]float64{
		"runtime": 1.5 / 4.8, "sim": 0.9 / 4.8, "arch": 0.6 / 4.8,
		"workload": 0.9 / 4.8, "service": 0.5 / 4.8, "noc": 0,
	} {
		if math.Abs(shares[g]-want) > 1e-9 {
			t.Errorf("share %s = %v, want %v", g, shares[g], want)
		}
	}
	if _, err := parseTop("no table here"); err == nil {
		t.Error("parseTop accepted text without a table")
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if got := sortedKeys(workloads); !slices.Equal(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	check := func(kind string, defs []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

// paperArchs are the seven evaluated L2 organizations.
var paperArchs = []string{"shared", "private", "sp-nuca", "esp-nuca", "d-nuca", "asr", "cc"}

// TestTracedAssemblyMatchesRun keeps the traced assembly in step with
// experiment.Run: on every paper architecture, a short run through the
// tracer gives the same results.
func TestTracedAssemblyMatchesRun(t *testing.T) {
	tr := newTracer(1)
	for _, a := range paperArchs {
		for _, wl := range []string{"apache", "gcc-twolf"} {
			rc := experiment.DefaultRunConfig(a, wl)
			rc.Warmup, rc.Instructions, rc.Seed = 3000, 2000, 7
			want, err := experiment.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRun(got, want) {
				t.Errorf("%s/%s: traced %+v, experiment.Run %+v", a, wl, got, want)
			}
		}
	}
	if tr.agg.events == 0 || tr.agg.instrs == 0 || tr.agg.writeback.n == 0 {
		t.Errorf("tracer saw no events, instructions or write-backs")
	}
}

func smokeOptions(t *testing.T, trace bool) options {
	return options{
		seed:     1,
		duration: 200 * time.Millisecond,
		trace:    trace,
		nproc:    runtime.NumCPU(),
		outDir:   t.TempDir(),
	}
}

// inProcessDaemon serves the espserved API from this process.
type inProcessDaemon struct {
	srv   *httptest.Server
	sched *service.Scheduler
	store *resultcache.Store
}

func startInProcess(o options) (daemon, error) {
	store, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		return nil, err
	}
	sched, err := service.New(service.Config{Workers: o.nproc, Runner: &service.SimRunner{Cache: store}})
	if err != nil {
		return nil, err
	}
	h := service.NewServer(sched, store, service.ServerOptions{Pprof: true})
	return &inProcessDaemon{srv: httptest.NewServer(h), sched: sched, store: store}, nil
}

func (d *inProcessDaemon) url() string { return d.srv.URL }

func (d *inProcessDaemon) stop() (float64, error) {
	d.srv.Close()
	if err := d.sched.Drain(context.Background()); err != nil {
		return 0, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return 0, err
	}
	return rss, d.store.Close()
}

// TestSmoke runs every workload path at a tiny size, untraced and
// traced, and checks each emits every metric BENCHMARK.json lists, with
// its unit, and passes its output checks.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	// Smoke names differ from the real ones, so no golden digest applies.
	runs := map[string]func(options) (*report, error){
		"figure8":      simWorkload{name: "smoke-figure8", figure: true, warmup: 2000, instructions: 2000}.run,
		"ft-long":      simWorkload{name: "smoke-ft-long", arch: "esp-nuca", workload: "FT", warmup: 2000, instructions: 5000}.run,
		"mcf-halfrate": simWorkload{name: "smoke-mcf-halfrate", arch: "esp-nuca", workload: "mcf-4", warmup: 2000, instructions: 5000}.run,
		"served": servedWorkload{name: "smoke-served", arch: "esp-nuca", cells: []string{"apache", "FT", "mcf-4"},
			warmup: 2000, instructions: 2000, profileSeconds: 1, start: startInProcess}.run,
	}
	for _, name := range sortedKeys(runs) {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				smoke(t, runs[name], trace, bj)
			})
		}
	}
}

func smoke(t *testing.T, run func(options) (*report, error), trace bool, bj benchmarkJSON) {
	rep, err := run(smokeOptions(t, trace))
	if err != nil {
		t.Fatal(err)
	}
	want, defs := bj.EndToEnd, endToEnd
	if trace {
		want, defs = bj.PerLayer, perLayer
	}
	res, err := rep.result(defs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.problems)
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}
