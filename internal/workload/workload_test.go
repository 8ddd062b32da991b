package workload

import (
	"testing"
	"testing/quick"

	"espnuca/internal/mem"
)

const (
	testL2Lines  = 32768 // 2 MB of 64B lines
	testL1ILines = 512
)

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 22 {
		t.Fatalf("catalog has %d workloads, want 22", len(cat))
	}
	counts := map[Kind]int{}
	for _, s := range cat {
		counts[s.Kind]++
	}
	if counts[Transactional] != 4 || counts[HalfRate] != 5 || counts[Hybrid] != 5 || counts[NAS] != 8 {
		t.Fatalf("family counts = %v, want 4/5/5/8", counts)
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if seen[s.Name] {
			t.Fatalf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{"apache", "jbb", "oltp", "zeus", "art-4", "mcf-gzip", "BT", "UA"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("workload %q missing", name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a nonexistent workload")
	}
	if len(Names()) != 22 {
		t.Error("Names() length mismatch")
	}
}

func TestActiveCores(t *testing.T) {
	apache, _ := ByName("apache")
	if apache.ActiveCores() != 0xFF {
		t.Fatalf("apache active = %b, want all cores", apache.ActiveCores())
	}
	hr, _ := ByName("gcc-4")
	if hr.ActiveCores() != 0x0F {
		t.Fatalf("gcc-4 active = %b, want cores 0-3", hr.ActiveCores())
	}
	hy, _ := ByName("mcf-twolf")
	if hy.ActiveCores() != 0xFF {
		t.Fatalf("mcf-twolf active = %b, want all", hy.ActiveCores())
	}
}

func TestBindGivesEveryCoreAStream(t *testing.T) {
	for _, s := range Catalog() {
		b := s.Bind(testL2Lines, testL1ILines, 1)
		for c := 0; c < 8; c++ {
			if b.Streams[c] == nil {
				t.Fatalf("%s: core %d has no stream", s.Name, c)
			}
			if b.Streams[c].Core() != c {
				t.Fatalf("%s: stream core mismatch", s.Name)
			}
		}
	}
}

// TestBindCoresMatchesBind checks that BindCores builds, for each core
// it is asked for, the stream Bind builds, and no other: a run reading
// its measured cores from a recording binds only its idle ones. A
// phased workload covers the assignment that splits the seed twice.
func TestBindCoresMatchesBind(t *testing.T) {
	specs := Catalog()
	phased, err := PhasedSpec("phased", apacheProfile(), mcfProfile(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, phased)
	for _, s := range specs {
		all := s.Bind(testL2Lines, testL1ILines, 7)
		for _, cores := range []mem.CoreSet{0, s.ActiveCores(), ^s.ActiveCores(), 0b1010_0101} {
			b := s.BindCores(testL2Lines, testL1ILines, 7, cores)
			for c := range mem.MaxCores {
				if !cores.Has(c) {
					if b.Streams[c] != nil {
						t.Fatalf("%s cores %08b: core %d was bound", s.Name, cores, c)
					}
					continue
				}
				for i := 0; i < 2000; i++ {
					if x, y := b.Streams[c].Next(), all.Streams[c].Next(); x != y {
						t.Fatalf("%s cores %08b: core %d instruction %d is %+v, Bind's %+v", s.Name, cores, c, i, x, y)
					}
				}
			}
			all = s.Bind(testL2Lines, testL1ILines, 7)
		}
	}
}

func TestIdleCoresRunIdleProfile(t *testing.T) {
	s, _ := ByName("art-4")
	b := s.Bind(testL2Lines, testL1ILines, 1)
	for c := 4; c < 8; c++ {
		if got := b.Streams[c].Profile().Name; got != "idle" {
			t.Fatalf("core %d profile = %q, want idle", c, got)
		}
	}
	if b.Streams[0].Profile().Name != "art" {
		t.Fatalf("core 0 profile = %q", b.Streams[0].Profile().Name)
	}
}

func TestStreamDeterminism(t *testing.T) {
	s, _ := ByName("apache")
	a := s.Bind(testL2Lines, testL1ILines, 42)
	b := s.Bind(testL2Lines, testL1ILines, 42)
	for i := 0; i < 5000; i++ {
		x, y := a.Streams[3].Next(), b.Streams[3].Next()
		if x != y {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestStreamSeedPerturbation(t *testing.T) {
	s, _ := ByName("apache")
	a := s.Bind(testL2Lines, testL1ILines, 1)
	b := s.Bind(testL2Lines, testL1ILines, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Streams[0].Next() == b.Streams[0].Next() {
			same++
		}
	}
	if same > 950 {
		t.Fatalf("different seeds produced nearly identical streams (%d/1000)", same)
	}
}

func TestMemFractionRealized(t *testing.T) {
	s, _ := ByName("oltp")
	b := s.Bind(testL2Lines, testL1ILines, 7)
	memOps := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if b.Streams[0].Next().IsMem {
			memOps++
		}
	}
	got := float64(memOps) / n
	want := b.Streams[0].Profile().MemFraction
	if got < want-0.03 || got > want+0.03 {
		t.Fatalf("mem fraction = %g, want ~%g", got, want)
	}
}

func TestMultithreadedSharesRegions(t *testing.T) {
	s, _ := ByName("apache") // multithreaded
	b := s.Bind(testL2Lines, testL1ILines, 3)
	shared := map[mem.Line]uint8{}
	for c := 0; c < 8; c++ {
		for i := 0; i < 30000; i++ {
			in := b.Streams[c].Next()
			if in.IsMem {
				shared[in.Data] |= 1 << uint(c)
			}
		}
	}
	multi := 0
	for _, mask := range shared {
		if mask&(mask-1) != 0 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("multithreaded workload produced no cross-core shared lines")
	}
}

func TestInstancesAreDisjoint(t *testing.T) {
	s, _ := ByName("gcc-4") // 4 independent instances
	b := s.Bind(testL2Lines, testL1ILines, 3)
	perCore := [4]map[mem.Line]bool{}
	for c := 0; c < 4; c++ {
		perCore[c] = map[mem.Line]bool{}
		for i := 0; i < 20000; i++ {
			in := b.Streams[c].Next()
			if in.IsMem {
				perCore[c][in.Data] = true
			}
		}
	}
	for a := 0; a < 4; a++ {
		for bb := a + 1; bb < 4; bb++ {
			for l := range perCore[a] {
				if perCore[bb][l] {
					// gcc has no OS fraction, so any overlap is a bug.
					t.Fatalf("instances %d and %d share line %#x", a, bb, l)
				}
			}
		}
	}
}

func TestNASFootprintExceedsL2(t *testing.T) {
	s, _ := ByName("FT")
	b := s.Bind(testL2Lines, testL1ILines, 3)
	lines := map[mem.Line]bool{}
	for c := 0; c < 8; c++ {
		for i := 0; i < 200000; i++ {
			in := b.Streams[c].Next()
			if in.IsMem {
				lines[in.Data] = true
			}
		}
	}
	if len(lines) < testL2Lines {
		t.Fatalf("FT touched only %d lines, want > L2 capacity %d", len(lines), testL2Lines)
	}
}

func TestGzipFitsPrivatePortion(t *testing.T) {
	s, _ := ByName("gzip-4")
	b := s.Bind(testL2Lines, testL1ILines, 3)
	lines := map[mem.Line]bool{}
	for i := 0; i < 100000; i++ {
		in := b.Streams[0].Next()
		if in.IsMem {
			lines[in.Data] = true
		}
	}
	// One core's private share of the L2 is 1/8 of capacity.
	if len(lines) > testL2Lines/8 {
		t.Fatalf("gzip instance touched %d lines, want << private portion %d", len(lines), testL2Lines/8)
	}
}

func TestFetchLinesComeFromCodeOrOS(t *testing.T) {
	s, _ := ByName("oltp")
	b := s.Bind(testL2Lines, testL1ILines, 3)
	fetches := 0
	for i := 0; i < 20000; i++ {
		in := b.Streams[1].Next()
		if !in.HasFetch {
			continue
		}
		fetches++
		if in.Fetch < osBase {
			t.Fatalf("fetch line %#x below OS base", in.Fetch)
		}
	}
	if fetches == 0 {
		t.Fatal("no instruction fetches generated")
	}
	// Fetch events should be well below one per instruction.
	if fetches > 10000 {
		t.Fatalf("%d fetches in 20000 instructions: fetch coalescing broken", fetches)
	}
}

// Property: streams never emit lines outside their region bases, for any
// seed and any catalog workload.
func TestStreamRegionsProperty(t *testing.T) {
	cat := Catalog()
	prop := func(seed uint64, wsel uint8) bool {
		s := cat[int(wsel)%len(cat)]
		b := s.Bind(testL2Lines, testL1ILines, seed)
		for c := 0; c < 8; c++ {
			for i := 0; i < 500; i++ {
				in := b.Streams[c].Next()
				if in.IsMem && in.Data < osBase {
					return false
				}
				if in.HasFetch && in.Fetch < osBase {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{Transactional, HalfRate, Hybrid, NAS} {
		if k.String() == "unknown" {
			t.Errorf("Kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Error("invalid kind not flagged")
	}
}

func TestPhasedSpecValidation(t *testing.T) {
	a := apacheProfile()
	b := mcfProfile()
	if _, err := PhasedSpec("p", a, b, 0); err == nil {
		t.Error("zero period accepted")
	}
	unnamed := a
	unnamed.Name = ""
	if _, err := PhasedSpec("p", unnamed, b, 100); err == nil {
		t.Error("unnamed profile accepted")
	}
	if _, err := PhasedSpec("p", a, b, 100); err != nil {
		t.Fatal(err)
	}
}

func TestPhasedStreamAlternates(t *testing.T) {
	spec, err := PhasedSpec("phase-test", apacheProfile(), mcfProfile(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	bound := spec.Bind(testL2Lines, testL1ILines, 1)
	st := bound.Streams[0]
	name, switches := st.Phase()
	if name != "apache" || switches != 0 {
		t.Fatalf("initial phase = %s/%d", name, switches)
	}
	for i := 0; i < 1500; i++ {
		st.Next()
	}
	name, switches = st.Phase()
	if name != "mcf" || switches != 1 {
		t.Fatalf("phase after 1500 instrs = %s/%d, want mcf/1", name, switches)
	}
	for i := 0; i < 1000; i++ {
		st.Next()
	}
	name, switches = st.Phase()
	if name != "apache" || switches != 2 {
		t.Fatalf("phase after 2500 instrs = %s/%d, want apache/2", name, switches)
	}
}

func TestPhasedStreamChangesFootprint(t *testing.T) {
	small := gzipProfile()
	big := mcfProfile()
	spec, err := PhasedSpec("phase-fp", small, big, 5000)
	if err != nil {
		t.Fatal(err)
	}
	bound := spec.Bind(testL2Lines, testL1ILines, 2)
	st := bound.Streams[0]
	countDistinct := func(n int) int {
		lines := map[mem.Line]bool{}
		for i := 0; i < n; i++ {
			in := st.Next()
			if in.IsMem {
				lines[in.Data] = true
			}
		}
		return len(lines)
	}
	gz := countDistinct(5000) // gzip phase
	mc := countDistinct(5000) // mcf phase
	if mc <= gz*2 {
		t.Fatalf("mcf phase touched %d lines vs gzip phase %d; phases not distinct", mc, gz)
	}
}

func TestUnphasedStreamPhase(t *testing.T) {
	s, _ := ByName("apache")
	b := s.Bind(testL2Lines, testL1ILines, 1)
	name, switches := b.Streams[0].Phase()
	if name != "apache" || switches != 0 {
		t.Fatalf("Phase() on plain stream = %s/%d", name, switches)
	}
}

// TestProfileSanity validates every catalog profile's parameters: all
// fractions in [0,1], footprints positive where the class requires them,
// and family-level properties (transactional share, NAS footprints,
// SPEC instance isolation).
func TestProfileSanity(t *testing.T) {
	frac := func(name string, v float64) {
		if v < 0 || v > 1 {
			t.Errorf("%s = %g outside [0,1]", name, v)
		}
	}
	for _, spec := range Catalog() {
		for _, a := range spec.Assignments {
			p := a.App
			frac(spec.Name+".MemFraction", p.MemFraction)
			frac(spec.Name+".WriteFraction", p.WriteFraction)
			frac(spec.Name+".SharedFraction", p.SharedFraction)
			frac(spec.Name+".SharedWriteFraction", p.SharedWriteFraction)
			frac(spec.Name+".StreamFraction", p.StreamFraction)
			frac(spec.Name+".OSFraction", p.OSFraction)
			frac(spec.Name+".BranchFraction", p.BranchFraction)
			frac(spec.Name+".Recency", p.Recency)
			frac(spec.Name+".CodeRecency", p.CodeRecency)
			if p.MemFraction <= 0 {
				t.Errorf("%s: zero memory fraction", spec.Name)
			}
			if p.PrivateFootprint <= 0 {
				t.Errorf("%s: zero private footprint", spec.Name)
			}
			if p.CodeFootprint <= 0 {
				t.Errorf("%s: zero code footprint", spec.Name)
			}
			if p.SharedFraction > 0 && p.SharedFootprint <= 0 {
				t.Errorf("%s: shared accesses with zero shared footprint", spec.Name)
			}
			switch spec.Kind {
			case Transactional:
				if p.SharedFraction < 0.2 {
					t.Errorf("%s: transactional sharing %g too low", spec.Name, p.SharedFraction)
				}
				if p.OSFraction <= 0 {
					t.Errorf("%s: transactional without OS activity", spec.Name)
				}
			case NAS:
				if p.PrivateFootprint < 1 {
					t.Errorf("%s: NAS footprint %g not > L2", spec.Name, p.PrivateFootprint)
				}
				if p.SharedFraction > 0.2 {
					t.Errorf("%s: NAS sharing %g too high", spec.Name, p.SharedFraction)
				}
			case HalfRate, Hybrid:
				if a.Multithreaded {
					t.Errorf("%s: SPEC instances marked multithreaded", spec.Name)
				}
				if p.SharedFraction != 0 {
					t.Errorf("%s: single-threaded app with shared fraction", spec.Name)
				}
			}
		}
	}
}

// TestHalfRateHybridPairings verifies the exact program-to-core layout
// of Table 1's multiprogrammed rows.
func TestHalfRateHybridPairings(t *testing.T) {
	hr, _ := ByName("mcf-4")
	if len(hr.Assignments) != 1 || len(hr.Assignments[0].Cores) != 4 {
		t.Fatalf("mcf-4 layout: %+v", hr.Assignments)
	}
	hy, _ := ByName("art-gzip")
	if len(hy.Assignments) != 2 {
		t.Fatalf("art-gzip has %d assignments", len(hy.Assignments))
	}
	if hy.Assignments[0].App.Name != "art" || hy.Assignments[1].App.Name != "gzip" {
		t.Fatalf("art-gzip apps: %s, %s",
			hy.Assignments[0].App.Name, hy.Assignments[1].App.Name)
	}
	for i, a := range hy.Assignments {
		if len(a.Cores) != 4 {
			t.Fatalf("assignment %d has %d cores", i, len(a.Cores))
		}
	}
}
