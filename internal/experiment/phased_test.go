package experiment

import (
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

// TestPhasedWorkloadDrivesAdaptation runs ESP-NUCA end to end on a
// workload that alternates between a tiny-footprint phase and a
// high-utility phase, and checks the per-bank nmax budgets actually move
// in both directions (paper S3.2 / Figure 3: the controller must follow
// the application's phases).
func TestPhasedWorkloadDrivesAdaptation(t *testing.T) {
	if testing.Short() {
		t.Skip("long adaptation run")
	}
	small := workload.AppProfile{
		Name: "tiny", MemFraction: 0.35, WriteFraction: 0.2,
		PrivateFootprint: 0.01, PrivateZipf: 1.0,
		SharedFraction: 0.4, SharedFootprint: 0.02, SharedZipf: 1.0,
		SharedWriteFraction: 0.1, CodeFootprint: 0.3, BranchFraction: 0.1,
		Recency: 0.5, CodeRecency: 0.95,
	}
	big := workload.AppProfile{
		Name: "hog", MemFraction: 0.4, WriteFraction: 0.2,
		PrivateFootprint: 2.0, PrivateZipf: 0.9, StreamFraction: 0.2,
		CodeFootprint: 0.3, BranchFraction: 0.08,
		Recency: 0.4, CodeRecency: 0.95,
	}
	spec, err := workload.PhasedSpec("phases", small, big, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.ScaledConfig()
	sys, err := arch.Build("esp-nuca", cfg)
	if err != nil {
		t.Fatal(err)
	}
	esp := sys.(*arch.ESPNUCA)
	bound := spec.Bind(cfg.L2Lines(), cfg.L1ILines(), 1)
	eng := sim.NewEngine()
	cores := make([]*cpu.Core, 8)
	for c := 0; c < 8; c++ {
		cores[c] = cpu.New(c, cpu.DefaultConfig(), eng, sys, bound.Streams[c], 250_000)
		cores[c].Start()
	}
	var raised, lowered bool
	// Sample the controllers periodically while the run progresses.
	probe := func() {
		for _, smp := range esp.Samplers() {
			if smp.Raises > 0 {
				raised = true
			}
			if smp.Lowers > 0 {
				lowered = true
			}
		}
	}
	for !allDone(cores) {
		eng.RunUntil(0, func() bool {
			return allDone(cores) || cores[0].Retired()%50_000 < 256
		})
		probe()
		if raised && lowered {
			break
		}
		// Nudge past the sampling point.
		eng.Run(eng.Now() + 1000)
	}
	probe()
	if !raised {
		t.Error("no bank ever raised nmax during the small-footprint phases")
	}
	if !lowered {
		t.Error("no bank ever lowered nmax during the high-utility phases")
	}
}

func allDone(cores []*cpu.Core) bool {
	for _, c := range cores {
		if !c.Done {
			return false
		}
	}
	return true
}
