package arch

import (
	"testing"

	"espnuca/internal/cache"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// testConfig is a small geometry that fills quickly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SetsPerBank = 8
	cfg.Ways = 4
	cfg.L1.Bytes = 1024 // 16 lines, 8 sets of 2
	cfg.L1.Ways = 2
	cfg.StaticPrivateWays = 3
	cfg.CheckTokens = true
	return cfg
}

// newSub builds a substrate for a test that constructs an architecture
// directly.
func newSub(t *testing.T, cfg Config) *Substrate {
	t.Helper()
	s, err := NewSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func build(t *testing.T, name string) System {
	t.Helper()
	sys, err := Build(name, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildAllNames(t *testing.T) {
	for _, name := range Names() {
		sys, err := Build(name, testConfig())
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if sys.Name() == "" {
			t.Fatalf("%q has empty display name", name)
		}
		if sys.Sub() == nil {
			t.Fatalf("%q has nil substrate", name)
		}
	}
	if _, err := Build("bogus", testConfig()); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	if _, err := NewSubstrate(cfg); err == nil {
		t.Error("non-8-core config accepted")
	}
	// Core c sits at router c and each router holds Banks/Cores banks,
	// so the mesh must have exactly one router per core.
	for _, grid := range [][2]int{{2, 1}, {4, 4}} {
		cfg = testConfig()
		cfg.NoC.Cols, cfg.NoC.Rows = grid[0], grid[1]
		if cfg.Validate() == nil {
			t.Errorf("%dx%d mesh for %d cores accepted", grid[0], grid[1], cfg.Cores)
		}
	}
	cfg = testConfig()
	cfg.CCProbability = 1.5
	if cfg.Validate() == nil {
		t.Error("bad CC probability accepted")
	}
	cfg = testConfig()
	cfg.StaticPrivateWays = 99
	if cfg.Validate() == nil {
		t.Error("oversized static partition accepted")
	}
	// The compact per-line copy record addresses 256 banks and 65536
	// sets per bank; both limits themselves are accepted.
	cfg = testConfig()
	cfg.Banks = 256
	if err := cfg.Validate(); err != nil {
		t.Errorf("256 banks rejected: %v", err)
	}
	cfg.Banks = 512
	if cfg.Validate() == nil {
		t.Error("512 banks accepted")
	}
	cfg = testConfig()
	cfg.SetsPerBank = 1 << 16
	if err := cfg.Validate(); err != nil {
		t.Errorf("65536 sets per bank rejected: %v", err)
	}
	cfg.SetsPerBank = 1 << 17
	if cfg.Validate() == nil {
		t.Error("131072 sets per bank accepted")
	}
}

func TestConfigCapacities(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.L2Lines() * cfg.BlockBytes; got != 8*1024*1024 {
		t.Fatalf("default L2 = %d bytes, want 8 MB", got)
	}
	if cfg.L1ILines() != 512 {
		t.Fatalf("L1I lines = %d, want 512", cfg.L1ILines())
	}
	s := ScaledConfig()
	if got := s.L2Lines() * s.BlockBytes; got != 1024*1024 {
		t.Fatalf("scaled L2 = %d bytes, want 1 MB", got)
	}
}

func TestNodeMapping(t *testing.T) {
	s, err := NewSubstrate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Banks 0-3 on node 0 (core 0's router), banks 28-31 on node 7.
	if s.NodeOfBank(0) != 0 || s.NodeOfBank(3) != 0 || s.NodeOfBank(28) != 7 {
		t.Fatalf("bank->node mapping wrong: %d %d %d",
			s.NodeOfBank(0), s.NodeOfBank(3), s.NodeOfBank(28))
	}
	// A core's private banks are on its own router (zero-hop).
	for c := 0; c < 8; c++ {
		lo, hi := s.Map.PrivateBanks(c)
		for b := lo; b < hi; b++ {
			if s.NodeOfBank(b) != s.NodeOfCore(c) {
				t.Fatalf("core %d private bank %d on node %d", c, b, s.NodeOfBank(b))
			}
		}
	}
}

// --- Per-architecture behaviour ---

func TestSharedMissGoesOffChipAndAllocatesHome(t *testing.T) {
	sys := build(t, "shared")
	s := sys.Sub()
	res := sys.Access(0, 0, 100, false)
	if res.Level != OffChip {
		t.Fatalf("cold access level = %v", res.Level)
	}
	if res.Done < s.Cfg.DRAM.Latency {
		t.Fatalf("off-chip done at %d, faster than DRAM latency", res.Done)
	}
	// Second access by another core hits in the home bank.
	res2 := sys.Access(res.Done, 1, 100, false)
	if res2.Level != SharedL2 && res2.Level != LocalL2 {
		t.Fatalf("warm access level = %v", res2.Level)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedWriteInvalidatesSharers(t *testing.T) {
	sys := build(t, "shared")
	s := sys.Sub()
	// Three cores read the line.
	var tm sim.Cycle
	for c := 0; c < 3; c++ {
		r := sys.Access(tm, c, 100, false)
		s.L1.Fill(c, 100, false, false)
		tm = r.Done
	}
	// Core 3 writes: all other L1 copies must vanish.
	r := sys.Access(tm, 3, 100, true)
	s.L1.Fill(3, 100, true, false)
	for c := 0; c < 3; c++ {
		if s.L1.Has(c, 100) {
			t.Fatalf("core %d retains the line after remote write", c)
		}
	}
	st := s.Dir.State(s.Open(100))
	if st.L1Tokens[3] != 8 || !st.Dirty {
		t.Fatalf("writer state = %+v", st)
	}
	_ = r
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedRemoteL1Intervention(t *testing.T) {
	sys := build(t, "shared")
	s := sys.Sub()
	// Core 0 writes the line (dirty in its L1).
	r := sys.Access(0, 0, 100, true)
	s.L1.Fill(0, 100, true, false)
	// Core 5 reads: must be served by core 0's L1.
	r2 := sys.Access(r.Done, 5, 100, false)
	if r2.Level != RemoteL1 {
		t.Fatalf("read of remote-dirty line level = %v, want RemoteL1", r2.Level)
	}
}

func TestPrivateLocalHitAfterWriteback(t *testing.T) {
	sys := build(t, "private")
	s := sys.Sub()
	r := sys.Access(0, 2, 100, false)
	if r.Level != OffChip {
		t.Fatalf("cold = %v", r.Level)
	}
	s.L1.Fill(2, 100, false, false)
	// Evict from L1 to L2 (unrestricted local allocation).
	s.L1.Invalidate(2, 100)
	sys.WriteBack(r.Done, 2, 100, true)
	r2 := sys.Access(r.Done+100, 2, 100, false)
	if r2.Level != LocalL2 {
		t.Fatalf("post-writeback access = %v, want LocalL2", r2.Level)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateRemoteTileHit(t *testing.T) {
	sys := build(t, "private")
	s := sys.Sub()
	r := sys.Access(0, 0, 100, false)
	s.L1.Fill(0, 100, false, false)
	s.L1.Invalidate(0, 100)
	sys.WriteBack(r.Done, 0, 100, true) // now in tile 0's L2 only
	r2 := sys.Access(r.Done+200, 6, 100, false)
	if r2.Level != RemoteL2 {
		t.Fatalf("cross-tile access = %v, want RemoteL2", r2.Level)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSPNUCAMemoryFillIsPrivate(t *testing.T) {
	sys := build(t, "sp-nuca")
	s := sys.Sub()
	r := sys.Access(0, 3, 100, false)
	if r.Level != OffChip {
		t.Fatalf("cold = %v", r.Level)
	}
	// The block must sit in core 3's private partition as Private.
	pbank, _ := s.Map.Private(100, 3)
	loc, ok := s.l2Find(s.Open(100), pbank)
	if !ok || loc.class != cache.Private {
		t.Fatalf("fill not private in owner bank: %+v ok=%v", loc, ok)
	}
	// Re-access by the owner: local hit.
	r2 := sys.Access(r.Done, 3, 100, false)
	if r2.Level != LocalL2 {
		t.Fatalf("owner re-access = %v, want LocalL2", r2.Level)
	}
}

func TestSPNUCAMigrationOnSecondCore(t *testing.T) {
	sys := build(t, "sp-nuca").(*SPNUCA)
	s := sys.Sub()
	r := sys.Access(0, 3, 100, false)
	// Core 5 touches the same line: found in core 3's private bank,
	// migrated to the shared home bank.
	r2 := sys.Access(r.Done, 5, 100, false)
	if r2.Level != RemoteL2 {
		t.Fatalf("discovery access = %v, want RemoteL2", r2.Level)
	}
	if sys.Migrations != 1 {
		t.Fatalf("Migrations = %d", sys.Migrations)
	}
	hbank, _ := s.Map.Shared(100)
	loc, ok := s.l2Find(s.Open(100), hbank)
	if !ok || loc.class != cache.Shared {
		t.Fatalf("line not migrated to home: %+v ok=%v", loc, ok)
	}
	pbank, _ := s.Map.Private(100, 3)
	if _, ok := s.l2Find(s.Open(100), pbank); ok {
		t.Fatal("stale private copy after migration")
	}
	// Third access (core 7) hits the shared bank directly.
	r3 := sys.Access(r2.Done, 7, 100, false)
	if r3.Level != SharedL2 && r3.Level != LocalL2 {
		t.Fatalf("post-migration access = %v", r3.Level)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSPNUCAStatusPersistsWhileOnChip(t *testing.T) {
	sys := build(t, "sp-nuca")
	s := sys.Sub()
	r := sys.Access(0, 3, 100, false)
	r2 := sys.Access(r.Done, 5, 100, false)
	shared, _, known := s.peekStatus(s.Open(100))
	if !known || !shared {
		t.Fatalf("status = shared=%v known=%v, want shared", shared, known)
	}
	// Writebacks of shared lines go to the home bank.
	s.L1.Fill(5, 100, false, false)
	_ = r2
}

func TestESPNUCACreatesReplicaOnRemoteSharedHit(t *testing.T) {
	sys := build(t, "esp-nuca").(*ESPNUCA)
	s := sys.Sub()
	// Make line 100 shared and resident at home.
	r := sys.Access(0, 3, 100, false)
	r2 := sys.Access(r.Done, 5, 100, false) // migrates to home
	// Another access by core 5 hits home; if home is remote, a replica
	// lands in 5's partition.
	hbank, _ := s.Map.Shared(100)
	if s.NodeOfBank(hbank) == s.NodeOfCore(5) {
		t.Skip("home bank local to core 5 for this line; replica not expected")
	}
	r3 := sys.Access(r2.Done, 5, 100, false)
	if r3.Level != SharedL2 {
		t.Fatalf("shared hit = %v", r3.Level)
	}
	pbank, _ := s.Map.Private(100, 5)
	loc, ok := s.l2Find(s.Open(100), pbank)
	if !ok || loc.class != cache.Replica {
		t.Fatalf("replica not created: %+v ok=%v", loc, ok)
	}
	if sys.Replicas == 0 {
		t.Fatal("replica counter zero")
	}
	// Fourth access hits the replica locally.
	r4 := sys.Access(r3.Done, 5, 100, false)
	if r4.Level != LocalL2 {
		t.Fatalf("replica hit = %v, want LocalL2", r4.Level)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestESPNUCAWriteKillsReplicas(t *testing.T) {
	sys := build(t, "esp-nuca").(*ESPNUCA)
	s := sys.Sub()
	r := sys.Access(0, 3, 100, false)
	r2 := sys.Access(r.Done, 5, 100, false)
	r3 := sys.Access(r2.Done, 5, 100, false) // replica for 5 (if remote home)
	// Core 1 writes: every L2 copy (home + replicas) must be gone.
	r4 := sys.Access(r3.Done, 1, 100, true)
	if locs := s.l2Has(s.Open(100)); len(locs) != 0 {
		t.Fatalf("L2 copies after GETX: %+v", locs)
	}
	st := s.Dir.State(s.Open(100))
	if st.L1Tokens[1] != 8 {
		t.Fatalf("writer tokens = %d", st.L1Tokens[1])
	}
	_ = r4
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestESPNUCAVictimSpill(t *testing.T) {
	cfg := testConfig()
	sys, err := NewESPNUCA(newSub(t, cfg), true)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Sub()
	// Raise every bank's nmax so victims are accepted.
	for _, smp := range sys.Samplers() {
		smp.SetNMax(2)
	}
	// Fill core 0's private bank set beyond capacity with private lines
	// that map to the same private bank/set but a different home bank.
	// Private mapping for core 0: bank = line & 3, set = (line >> 2) & 7:
	// lines = 8 mod 32 share private bank 0, set 2; their home is bank 8.
	var tm sim.Cycle
	lines := []mem.Line{8, 40, 72, 104, 136}
	for _, l := range lines {
		r := sys.Access(tm, 0, l, false)
		tm = r.Done
	}
	if sys.Victims == 0 {
		t.Fatal("no victims spilled despite private-partition overflow")
	}
	// At least one of the early lines should now be a Victim in its home
	// bank.
	foundVictim := false
	for _, l := range lines {
		for _, loc := range s.l2Has(s.Open(l)) {
			if loc.class == cache.Victim {
				foundVictim = true
			}
		}
	}
	if !foundVictim {
		t.Fatal("no victim block resident")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestESPNUCAVictimPromotionOnForeignTouch(t *testing.T) {
	cfg := testConfig()
	sys, err := NewESPNUCA(newSub(t, cfg), true)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Sub()
	for _, smp := range sys.Samplers() {
		smp.SetNMax(2)
	}
	var tm sim.Cycle
	for _, l := range []mem.Line{8, 40, 72, 104, 136} {
		r := sys.Access(tm, 0, l, false)
		tm = r.Done
	}
	// Find a victim line and touch it from another core.
	var vline mem.Line
	var vbank int
	found := false
	for _, l := range []mem.Line{8, 40, 72, 104, 136} {
		for _, loc := range s.l2Has(s.Open(l)) {
			if loc.class == cache.Victim {
				vline, vbank, found = l, int(loc.bank), true
			}
		}
	}
	if !found {
		t.Skip("no victim resident (policy refused)")
	}
	r := sys.Access(tm, 5, vline, false)
	if loc, ok := s.l2Find(s.Open(vline), vbank); !ok || loc.class != cache.Shared {
		t.Fatalf("victim not promoted to shared: %+v ok=%v (level %v)", loc, ok, r.Level)
	}
	if shared, _, _ := s.peekStatus(s.Open(vline)); !shared {
		t.Fatal("status not marked shared after promotion")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDNUCAPromotesTowardRequester(t *testing.T) {
	sys := build(t, "d-nuca").(*DNUCA)
	s := sys.Sub()
	// Line 0 maps to column 0. Access from core 7 (node 7, column 3...).
	// Use a core whose router is in the line's column but the far row.
	r := sys.Access(0, 4, 0, false) // node 4 is column 0, row 1
	if r.Level != OffChip {
		t.Fatalf("cold = %v", r.Level)
	}
	// The fill must be in a bank on node 4 (nearest in column).
	locs := s.l2Has(s.Open(0))
	if len(locs) != 1 || s.NodeOfBank(int(locs[0].bank)) != 4 {
		t.Fatalf("fill location = %+v", locs)
	}
	// Access from core 0 (node 0, same column, other row): remote hit.
	// Promotion is hysteretic — it needs a second consecutive remote hit
	// by the same core.
	r2 := sys.Access(r.Done, 0, 0, false)
	if r2.Level != SharedL2 {
		t.Fatalf("cross-row access = %v", r2.Level)
	}
	if sys.Reps != 0 || sys.Migs != 0 {
		t.Fatal("promotion fired on the first remote hit (hysteresis broken)")
	}
	r2b := sys.Access(r2.Done, 0, 0, false)
	if r2b.Level != SharedL2 {
		t.Fatalf("second cross-row access = %v", r2b.Level)
	}
	if sys.Reps == 0 && sys.Migs == 0 {
		t.Fatal("no promotion occurred after repeated remote hits")
	}
	// Next access from core 0 is local.
	r3 := sys.Access(r2b.Done, 0, 0, false)
	if r3.Level != LocalL2 {
		t.Fatalf("post-promotion access = %v, want LocalL2", r3.Level)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCCSpillsToPeer(t *testing.T) {
	cfg := testConfig()
	cfg.CCProbability = 1.0
	sys := NewCC(newSub(t, cfg))
	s := sys.Sub()
	// Overflow core 0's private bank 0 set 2 via write-backs (lines = 8
	// mod 32).
	var tm sim.Cycle
	for _, l := range []mem.Line{8, 40, 72, 104, 136, 168} {
		r := sys.Access(tm, 0, l, true)
		s.L1.Fill(0, l, true, false)
		s.L1.Invalidate(0, l)
		sys.WriteBack(r.Done, 0, l, true)
		tm = r.Done + 50
	}
	if sys.Spills == 0 {
		t.Fatal("CC with probability 1.0 never spilled")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCCZeroProbabilityNeverSpills(t *testing.T) {
	cfg := testConfig()
	cfg.CCProbability = 0
	sys := NewCC(newSub(t, cfg))
	var tm sim.Cycle
	for _, l := range []mem.Line{8, 40, 72, 104, 136, 168} {
		r := sys.Access(tm, 0, l, true)
		sys.Sub().L1.Fill(0, l, true, false)
		sys.Sub().L1.Invalidate(0, l)
		sys.WriteBack(r.Done, 0, l, true)
		tm = r.Done + 50
	}
	if sys.Spills != 0 {
		t.Fatalf("CC-0%% spilled %d times", sys.Spills)
	}
}

func TestASRAdaptsLevels(t *testing.T) {
	sys := build(t, "asr").(*ASR)
	levels := sys.Levels()
	if len(levels) != 8 || levels[0] != 0.5 {
		t.Fatalf("initial levels = %v", levels)
	}
}

func TestLevelString(t *testing.T) {
	for l := Level(0); l < NumLevels; l++ {
		if l.String() == "" {
			t.Errorf("level %d unnamed", l)
		}
	}
}

func TestAvgAccessTimeDecomposition(t *testing.T) {
	sys := build(t, "shared")
	s := sys.Sub()
	sys.Access(0, 0, 100, false)
	s.RecordL1Hit()
	total, contrib := s.AvgAccessTime()
	if total <= 0 {
		t.Fatal("zero average access time")
	}
	sum := 0.0
	for l := Level(0); l < NumLevels; l++ {
		sum += contrib[l]
	}
	if diff := sum - total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("decomposition sum %g != total %g", sum, total)
	}
}
