package espnuca

// Steady-state allocation guard for the memory-system hot path. The
// simulator's access loop is designed to be allocation-free once the
// bookkeeping structures (directory table, residency map and its slice
// pools, status map) have reached their working-set size: tag queries are
// value types, mesh routing claims links in place, the coherence
// directory stores states by value, residency slices are recycled, and the
// miss heap reuses its backing array. TestSteadyStateAllocs drives every
// L2 organization to steady state and then asserts that an access
// allocates (almost) nothing, so a regression — a closure reintroduced on
// the lookup path, a per-message slice in the NoC — fails loudly instead
// of silently costing 20% of runtime in the garbage collector.
// TestRunAllocs extends the guard to a whole run: core scheduling and the
// shared resources' booking windows included.

import (
	"runtime"
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/experiment"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// maxAllocsPerAccess is the steady-state budget. Every architecture in
// arch.Names() measures 0.000: a line's record holds its L2 copies
// inline, so once the line table has grown to the working set a fill
// allocates nothing. The budget is not exactly zero only so that a rare
// table doubling inside the measured window does not fail the test; one
// escaping closure per tag lookup, or a fresh residency slice per fill,
// would cost well over 0.1.
const maxAllocsPerAccess = 0.01

func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	for _, name := range arch.Names() {
		t.Run(name, func(t *testing.T) {
			sys, err := arch.Build(name, arch.ScaledConfig())
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(1)
			var tm sim.Cycle
			access := func() {
				res := sys.Access(tm, rng.Intn(8), mem.Line(rng.Intn(4096)), rng.Bool(0.3))
				tm = res.Done
			}
			// Reach steady state: touch the whole 4096-line working set
			// enough times that maps, slices and the directory table have
			// grown to their final sizes.
			for i := 0; i < 50_000; i++ {
				access()
			}
			const batch = 100
			avg := testing.AllocsPerRun(200, func() {
				for i := 0; i < batch; i++ {
					access()
				}
			}) / batch
			if avg > maxAllocsPerAccess {
				t.Errorf("%s: %.2f allocs per access in steady state, budget %.2f",
					name, avg, maxAllocsPerAccess)
			}
			t.Logf("%s: %.3f allocs per access", name, avg)
		})
	}
}

// runAllocBudget bounds the heap allocations of a whole simulation per
// 1,000 retired instructions, measured as the marginal cost between a
// short and a longer run of the same configuration so that one-time
// construction and reporting cancel out. TestSteadyStateAllocs calls
// System.Access directly and so never sees the core model's event
// scheduling or the resources' booking windows; this guard covers the
// whole loop. A method-value closure per scheduler slice costs about 30
// allocations per 1,000 instructions on esp-nuca/FT, and a fresh residency
// slice per L2 fill about 170.
const runAllocBudget = 0.5

func TestRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	run := func(instructions uint64) (allocs, retired uint64) {
		rc := experiment.DefaultRunConfig("esp-nuca", "FT")
		rc.Warmup, rc.Instructions = 20_000, instructions
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := experiment.Run(rc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.Retired
	}
	shortAllocs, shortRetired := run(20_000)
	longAllocs, longRetired := run(120_000)
	// Signed: with no per-instruction allocation left, run-to-run noise
	// can leave the longer run a few allocations below the shorter one.
	perK := 1000 * float64(int64(longAllocs)-int64(shortAllocs)) / float64(longRetired-shortRetired)
	t.Logf("esp-nuca/FT: %d allocs over %d retired, %d over %d: %.3f allocs per 1,000 instructions",
		shortAllocs, shortRetired, longAllocs, longRetired, perK)
	if perK > runAllocBudget {
		t.Errorf("esp-nuca/FT allocates %.3f times per 1,000 retired instructions, budget %.2f",
			perK, runAllocBudget)
	}
}
