package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"espnuca/internal/obs"
)

// obsRunConfig is a short instrumented esp-nuca run.
func obsRunConfig() RunConfig {
	rc := DefaultRunConfig("esp-nuca", "oltp")
	rc.Warmup = 20_000
	rc.Instructions = 8_000
	rc.MetricsInterval = 2_000
	return rc
}

// TestRunWithMetrics exercises the full telemetry path of one run: the
// interval ticker, the substrate and ESP-NUCA probes, the JSONL sink and
// the phase trace events.
func TestRunWithMetrics(t *testing.T) {
	rc := obsRunConfig()
	reg := obs.NewRegistry()
	var jsonl bytes.Buffer
	reg.AttachJSONL(&jsonl)
	reg.EnableTrace()
	rc.Metrics = reg

	if _, err := Run(rc); err != nil {
		t.Fatal(err)
	}
	if err := reg.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if reg.Ticks() < 3 {
		t.Fatalf("only %d ticks for a run sampled every %d cycles", reg.Ticks(), rc.MetricsInterval)
	}

	// ESP-NUCA per-bank adaptation series must exist with monotone
	// timestamps, one point per tick.
	nmax := reg.Series("bank00.nmax")
	pts := nmax.Points()
	if uint64(len(pts)) != reg.Ticks() {
		t.Fatalf("bank00.nmax has %d points, want one per tick (%d)", len(pts), reg.Ticks())
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatalf("bank00.nmax timestamps regressed: %d after %d", pts[i].T, pts[i-1].T)
		}
	}
	for _, name := range []string{"bank00.hrc", "bank00.hrr", "bank00.hre", "bank00.helping", "noc.queue_delay"} {
		if reg.Series(name).Len() == 0 {
			t.Fatalf("series %q recorded no points", name)
		}
	}
	if reg.Counter("l2.lookups").Value() == 0 {
		t.Fatal("l2.lookups counter stayed zero")
	}

	// Every JSONL line is a parseable snapshot with a cycle and the nmax
	// series value.
	sc := bufio.NewScanner(&jsonl)
	var lines int
	var lastCycle uint64
	for sc.Scan() {
		lines++
		var snap struct {
			Cycle  uint64             `json:"cycle"`
			Series map[string]float64 `json:"series"`
		}
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("JSONL line %d: %v", lines, err)
		}
		if snap.Cycle < lastCycle {
			t.Fatalf("JSONL cycles regressed: %d after %d", snap.Cycle, lastCycle)
		}
		lastCycle = snap.Cycle
		if _, ok := snap.Series["bank00.nmax"]; !ok {
			t.Fatalf("JSONL line %d missing bank00.nmax", lines)
		}
	}
	if uint64(lines) != reg.Ticks() {
		t.Fatalf("JSONL has %d lines, want %d (one per tick)", lines, reg.Ticks())
	}

	// The trace holds both phase events and counter tracks.
	var phases []string
	for _, ev := range reg.Trace().Events() {
		if ev.Ph == "X" && ev.Cat == "phase" {
			phases = append(phases, ev.Name)
		}
	}
	if len(phases) != 2 || phases[0] != "warmup" || phases[1] != "measured" {
		t.Fatalf("phase events = %v, want [warmup measured]", phases)
	}
}

// TestRunMetricsDoNotPerturbResults locks the zero-interference contract:
// an instrumented run must produce bit-identical simulation results.
func TestRunMetricsDoNotPerturbResults(t *testing.T) {
	rc := obsRunConfig()
	plain, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Metrics = obs.NewRegistry()
	instrumented, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if plain != instrumented {
		t.Fatalf("metrics perturbed the run:\nplain        %+v\ninstrumented %+v", plain, instrumented)
	}
}

// TestMatrixObsWritesFiles runs a tiny matrix with an ObsSpec and checks
// the per-cell metrics and trace files land in the directory.
func TestMatrixObsWritesFiles(t *testing.T) {
	dir := t.TempDir()
	m := NewMatrix([]string{"oltp"}, []Variant{V("esp-nuca", "esp-nuca")})
	m.Seeds = []uint64{1, 2}
	m.Warmup = 10_000
	m.Instructions = 4_000
	m.Obs = &ObsSpec{Dir: dir, Interval: 2_000, Trace: true}
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"s1", "s2"} {
		base := "esp-nuca_oltp_" + seed
		jb, err := os.ReadFile(filepath.Join(dir, base+".metrics.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(jb), "bank00.nmax") {
			t.Fatalf("%s.metrics.jsonl carries no nmax series", base)
		}
		tb, err := os.ReadFile(filepath.Join(dir, base+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []obs.TraceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(tb, &tf); err != nil {
			t.Fatalf("%s.trace.json: %v", base, err)
		}
		if len(tf.TraceEvents) == 0 {
			t.Fatalf("%s.trace.json is empty", base)
		}
	}
}

// TestMatrixObsWritesTwinFiles checks that cells that are one
// simulation (CC at 0 and private) each get that run's telemetry files.
func TestMatrixObsWritesTwinFiles(t *testing.T) {
	dir := t.TempDir()
	m := NewMatrix([]string{"oltp"}, []Variant{V("private", "private"), CCVariant(0)})
	m.Seeds = []uint64{1}
	m.Warmup = 10_000
	m.Instructions = 4_000
	m.Obs = &ObsSpec{Dir: dir, Interval: 2_000, Trace: true}
	runs := 0
	if _, err := m.Run(func(done, total int) { runs = total }); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("%d simulations for private and CC00, want 1", runs)
	}
	for _, ext := range []string{".metrics.jsonl", ".trace.json"} {
		p, err := os.ReadFile(filepath.Join(dir, "private_oltp_s1"+ext))
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(filepath.Join(dir, "CC00_oltp_s1"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(p) == 0 || !bytes.Equal(p, c) {
			t.Errorf("%s: private has %d bytes, CC00 %d, want the same non-empty file", ext, len(p), len(c))
		}
	}
}
