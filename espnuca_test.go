package espnuca

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"espnuca/internal/experiment"
	"espnuca/internal/service"
)

func TestDefaults(t *testing.T) {
	rep, err := Run(Options{Warmup: 20_000, Instructions: 8_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arch != "esp-nuca" || rep.Workload != "apache" {
		t.Fatalf("defaults = %s/%s", rep.Arch, rep.Workload)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %g", rep.Throughput)
	}
}

// TestAllArchitecturesRun runs every architecture with per-transaction
// token checks on a private multiprogrammed mix and on apache, the
// high-sharing server workload with OS activity.
func TestAllArchitecturesRun(t *testing.T) {
	for _, w := range []string{"gzip-4", "apache"} {
		for _, a := range Architectures() {
			rep, err := Run(Options{
				Architecture: a, Workload: w,
				Warmup: 15_000, Instructions: 5_000, CheckTokens: true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", a, w, err)
			}
			if rep.MeanIPC <= 0 {
				t.Fatalf("%s/%s: IPC %g", a, w, rep.MeanIPC)
			}
		}
	}
}

func TestWorkloadCatalogExposed(t *testing.T) {
	ws := Workloads()
	if len(ws) != 22 {
		t.Fatalf("%d workloads, want 22", len(ws))
	}
	if len(Architectures()) != 10 {
		t.Fatalf("%d architectures, want 10", len(Architectures()))
	}
}

func TestUnknownInputsRejected(t *testing.T) {
	if _, err := Run(Options{Workload: "quake3"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Options{Architecture: "l4-nuca", Warmup: 1000, Instructions: 1000}); err == nil {
		t.Error("unknown architecture accepted")
	}
	if _, err := Run(Options{Architecture: "cc", CCProbability: 1.5}); err == nil {
		t.Error("cooperation probability 1.5 accepted")
	}
	if _, err := Run(Options{Architecture: "cc", CCProbability: math.NaN()}); err == nil {
		t.Error("cooperation probability NaN accepted")
	}
	if _, err := Figure(3, FigureOptions{}); err == nil {
		t.Error("figure 3 (non-evaluation figure) accepted")
	}
}

// TestEntryPointsRejectAlike: one list of bad run specs, each refused
// before any simulation with RunConfig.Validate's message by every entry
// point: the facade, experiment.Run, Matrix.Run, Scheduler.Submit and
// POST /v1/jobs (400).
func TestEntryPointsRejectAlike(t *testing.T) {
	sched, err := service.New(service.Config{Workers: 1, Runner: &service.SimRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Drain(context.Background())
	ts := httptest.NewServer(service.NewServer(sched, nil))
	defer ts.Close()

	bad := []experiment.RunSpec{
		{Arch: "nope", Workload: "apache"},
		{Arch: "esp-nuca", Workload: "quake3"},
		{Arch: "cc", Workload: "apache", CCProbability: 1.5},
		{Arch: "cc", Workload: "apache", CCProbability: 5},
		{Arch: "cc", Workload: "apache", CCProbability: math.NaN()},
	}
	for _, sp := range bad {
		rc, verdict := sp.Config()
		if verdict == nil {
			t.Errorf("%+v passed Validate", sp)
			continue
		}
		msg := verdict.Error()
		check := func(entry string, err error, want string) {
			t.Helper()
			if err == nil || err.Error() != want {
				t.Errorf("%+v: %s error = %v, want %q", sp, entry, err, want)
			}
		}

		_, err := Run(Options{Architecture: sp.Arch, Workload: sp.Workload, Instructions: sp.Instructions,
			CCProbability: sp.CCProbability})
		check("espnuca.Run", err, msg)
		_, err = experiment.Run(rc)
		check("experiment.Run", err, msg)
		m := experiment.Matrix{Workloads: []string{rc.Workload}, Variants: []experiment.Variant{experiment.V(rc.Arch, rc.Arch)},
			Seeds: []uint64{rc.Seed}, Warmup: rc.Warmup, Instructions: rc.Instructions, System: rc.System}
		_, err = m.Run(nil)
		check("Matrix.Run", err, rc.Arch+"/"+rc.Workload+": "+msg)
		_, err = sched.Submit(service.JobSpec{Run: &sp})
		check("Scheduler.Submit", err, msg)

		body, err := json.Marshal(service.JobSpec{Run: &sp})
		if err != nil {
			continue // JSON cannot carry a NaN, so POST /v1/jobs never sees one
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || reply.Error != msg {
			t.Errorf("%+v: POST /v1/jobs = %d %q (%v), want 400 %q", sp, resp.StatusCode, reply.Error, err, msg)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	tab := WorkloadTable()
	if len(tab.Rows) != 22 {
		t.Fatalf("Table 1 rows = %d", len(tab.Rows))
	}
	s := tab.String()
	for _, name := range []string{"apache", "mcf-4", "BT"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table 1 render missing %q", name)
		}
	}
}

func TestFigureQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration")
	}
	tab, err := Figure(5, FigureOptions{Quick: true, Instructions: 6_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("Figure 5 rows = %d, want 12", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 2 {
			t.Fatalf("row %s has %d values", r.Label, len(r.Values))
		}
		for _, v := range r.Values {
			if v <= 0 {
				t.Fatalf("row %s has non-positive normalized value %g", r.Label, v)
			}
		}
	}
}
