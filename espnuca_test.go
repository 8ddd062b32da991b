package espnuca

import (
	"strings"
	"testing"
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
	if len(Architectures()) != 13 {
		t.Fatalf("%d architectures, want 13", len(Architectures()))
	}
}

func TestUnknownInputsRejected(t *testing.T) {
	if _, err := Run(Options{Workload: "quake3"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Options{Architecture: "l4-nuca", Warmup: 1000, Instructions: 1000}); err == nil {
		t.Error("unknown architecture accepted")
	}
	if _, err := Figure(3, FigureOptions{}); err == nil {
		t.Error("figure 3 (non-evaluation figure) accepted")
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

func TestRunDetailed(t *testing.T) {
	rep, err := RunDetailed(Options{
		Architecture: "esp-nuca", Workload: "oltp",
		Warmup: 15_000, Instructions: 6_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Occupancy.Valid() == 0 {
		t.Fatal("empty occupancy snapshot")
	}
	if rep.Energy.TotalMJ() <= 0 {
		t.Fatal("no energy estimated")
	}
	if rep.Throughput <= 0 {
		t.Fatal("missing base metrics")
	}
}
