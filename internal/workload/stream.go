package workload

import (
	"espnuca/internal/mem"
	"espnuca/internal/sim"
	"espnuca/internal/stats"
)

// Instr is one retired instruction's memory behaviour.
//
// It has three top-level fields, and Flags three, because Go keeps a
// struct in registers only when every level has at most four fields;
// with more, every Next result is spilled to the stack and reloaded by
// the caller, once per simulated instruction (TestInstrFitsInRegisters).
type Instr struct {
	// Fetch is the instruction line to fetch when HasFetch is set.
	Fetch mem.Line
	// Data is the accessed data line when IsMem is set.
	Data mem.Line
	Flags
}

// Flags says which of an Instr's lines are live and how Data is used.
type Flags struct {
	// HasFetch is set only when the PC crossed into a new cache line
	// (sequentially or by branch), so the L1I is probed once per line,
	// not once per instruction.
	HasFetch bool
	IsMem    bool
	Write    bool
}

// Region bases keep the workload's address spaces disjoint. Lines are
// block indices (64 B granularity), so these bases are far apart.
const (
	osBase      mem.Line = 0x0100_0000
	codeBase    mem.Line = 0x0200_0000
	sharedBase  mem.Line = 0x0800_0000
	privateBase mem.Line = 0x4000_0000
	regionSpan  mem.Line = 0x0040_0000 // 4M lines = 256 MB per region
)

const instrsPerCodeLine = 16 // 4-byte instructions in a 64-byte line

// osLines is the shared OS region footprint in lines (kernel text/data,
// buffer caches); fixed, modest, and common to every core.
const osLines = 4096

// Stream generates the instruction sequence of one core. It is
// deterministic given its RNG seed.
type Stream struct {
	core int
	prof AppProfile
	ch   chances
	rng  *sim.RNG

	privBase, shBase, cdBase mem.Line
	privLines, shLines       int
	codeLines                int

	privZipf, shZipf, codeZipf, osZipf *stats.Zipf

	// streaming scan cursor over the private footprint
	scan int
	// current code line and intra-line position
	codeLine mem.Line
	codePos  int

	// recency buffers model the short-stack-distance part of the
	// reference stream: most accesses re-touch something used moments
	// ago (which the L1 absorbs), while the tail spreads over the full
	// footprint (which exercises the L2 and memory).
	recentData []recEntry
	recentCode []mem.Line
	recDataPos int
	recCodePos int
	dataCap    int
	codeCap    int

	// phase, when non-nil, alternates this stream with an alternate
	// profile's stream every phase.period instructions (paper S3.2's
	// changing execution phases).
	phase *phaseState
}

// chances holds the profile's probabilities as sim.Chance thresholds,
// converted once per stream so each draw is an integer compare.
type chances struct {
	branch, codeRecency, os, mem, recency     sim.Chance
	write, sharedWrite, osWrite, shared, scan sim.Chance
}

// osWriteFraction is the write share of OS data accesses.
const osWriteFraction = 0.1

func chancesOf(p AppProfile) chances {
	return chances{
		branch:      sim.ChanceOf(p.BranchFraction),
		codeRecency: sim.ChanceOf(p.CodeRecency),
		os:          sim.ChanceOf(p.OSFraction),
		mem:         sim.ChanceOf(p.MemFraction),
		recency:     sim.ChanceOf(p.Recency),
		write:       sim.ChanceOf(p.WriteFraction),
		sharedWrite: sim.ChanceOf(p.SharedWriteFraction),
		osWrite:     sim.ChanceOf(osWriteFraction),
		shared:      sim.ChanceOf(p.SharedFraction),
		scan:        sim.ChanceOf(p.StreamFraction),
	}
}

// recEntry remembers a recently touched line and which region's write mix
// applies to it.
type recEntry struct {
	line   mem.Line
	shared bool
}

// Recency ring capacities scale with the L1 so that recency re-touches
// land in the L1 regardless of the simulated geometry (the ring models
// the short-stack-distance reuse the L1 exists to absorb).
func recentDataCap(l1Lines int) int { return clampInt(l1Lines/4, 16, 256) }
func recentCodeCap(l1Lines int) int { return clampInt(l1Lines/8, 8, 64) }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Generated streams cap their Zipf rank space to bound CDF memory; ranks
// map 1:1 to lines up to the cap, which covers every footprint used by
// the catalog on practical configurations.
const zipfCap = 1 << 18

// zipfSet shares Zipf samplers between the streams of one bound
// workload. A sampler is immutable once built, and every core running
// the same profile over same-sized regions needs the same one, as does
// every core's OS region.
type zipfSet map[zipfKey]*stats.Zipf

type zipfKey struct {
	n int
	s float64
}

func (zs zipfSet) get(n int, s float64) *stats.Zipf {
	k := zipfKey{n, s}
	z, ok := zs[k]
	if !ok {
		z = stats.NewZipf(n, s)
		zs[k] = z
	}
	return z
}

// newStream builds the stream for one core of a bound workload. l1Lines
// sizes the recency rings; zs supplies the Zipf samplers.
func newStream(core int, prof AppProfile, privBase, shBase, cdBase mem.Line,
	privLines, shLines, codeLines, l1Lines int, zs zipfSet, rng *sim.RNG) *Stream {

	clampCap := func(n int) int {
		if n < 1 {
			return 1
		}
		if n > zipfCap {
			return zipfCap
		}
		return n
	}
	s := &Stream{
		core: core, prof: prof, ch: chancesOf(prof), rng: rng,
		privBase: privBase, shBase: shBase, cdBase: cdBase,
		privLines: max(1, privLines), shLines: max(1, shLines), codeLines: max(1, codeLines),
		dataCap: recentDataCap(l1Lines),
		codeCap: recentCodeCap(l1Lines),
	}
	s.recentData = make([]recEntry, 0, s.dataCap)
	s.recentCode = make([]mem.Line, 0, s.codeCap)
	s.privZipf = zs.get(clampCap(privLines), prof.PrivateZipf)
	s.shZipf = zs.get(clampCap(shLines), prof.SharedZipf)
	s.codeZipf = zs.get(clampCap(codeLines), 1.0)
	s.osZipf = zs.get(osLines, 0.8)
	s.codeLine = cdBase
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Core returns the core index this stream drives.
func (s *Stream) Core() int { return s.core }

// Profile returns the application profile behind the stream.
func (s *Stream) Profile() AppProfile { return s.prof }

// Next produces the next instruction.
func (s *Stream) Next() Instr {
	if p := s.phase; p != nil {
		p.count++
		if p.count > p.period {
			p.count = 1
			p.inAlt = !p.inAlt
			p.switches++
		}
		if p.inAlt {
			return p.alt.Next()
		}
	}
	_, in, _ := s.run(1)
	return in
}

// NextRun draws at most m instructions, exactly as m calls of Next
// would, and stops at the first one that fetches a new code line or
// accesses memory. It returns how many empty instructions (neither
// fetching nor accessing memory) it drew before that one, and the one
// itself with ok set; when all m are empty it returns m and ok false.
// Most instructions are empty, and a core retires a run of them
// arithmetically instead of one Next call at a time.
func (s *Stream) NextRun(m int) (empty int, in Instr, ok bool) {
	if s.phase == nil {
		return s.run(m)
	}
	// Phase alternation counts single instructions.
	for ; empty < m; empty++ {
		if in = s.Next(); in.HasFetch || in.IsMem {
			return empty, in, true
		}
	}
	return m, Instr{}, false
}

// Phase reports the active profile name and completed phase switches.
func (s *Stream) Phase() (string, int) {
	if p := s.phase; p != nil {
		if p.inAlt {
			return p.alt.prof.Name, p.switches
		}
		return s.prof.Name, p.switches
	}
	return s.prof.Name, 0
}

// run is NextRun on this stream's own profile: the one generator every
// draw goes through. Per instruction the program counter advances,
// crossing into a new code line sequentially every instrsPerCodeLine
// instructions or on a taken branch, and then a memory access is drawn.
func (s *Stream) run(m int) (empty int, in Instr, ok bool) {
	for ; empty < m; empty++ {
		s.codePos++
		if branch := s.rng.Hit(s.ch.branch); branch || s.codePos >= instrsPerCodeLine {
			in.Fetch, in.HasFetch = s.fetch(branch), true
		}
		if s.rng.Hit(s.ch.mem) {
			in.Data, in.Write = s.data()
			in.IsMem = true
			return empty, in, true
		}
		if in.HasFetch {
			return empty, in, true
		}
	}
	return m, Instr{}, false
}

// fetch moves the program counter into a new code line, the target of a
// taken branch or the next line in sequence, and returns that line.
func (s *Stream) fetch(branch bool) mem.Line {
	s.codePos = 0
	if branch {
		switch {
		case len(s.recentCode) > 0 && s.rng.Hit(s.ch.codeRecency):
			// Loop back into recently executed code.
			s.codeLine = s.recentCode[s.rng.Intn(len(s.recentCode))]
		case s.rng.Hit(s.ch.os):
			// OS code: common region, hot.
			s.codeLine = osBase + mem.Line(s.osZipf.Sample(s.rng))
			s.pushCode(s.codeLine)
		default:
			s.codeLine = s.cdBase + mem.Line(s.codeZipf.Sample(s.rng)%s.codeLines)
			s.pushCode(s.codeLine)
		}
	} else {
		s.codeLine++
		if s.codeLine >= s.cdBase+mem.Line(s.codeLines) {
			s.codeLine = s.cdBase
		}
		s.pushCode(s.codeLine)
	}
	return s.codeLine
}

// data draws the line a memory instruction accesses and whether it
// writes.
func (s *Stream) data() (line mem.Line, write bool) {
	// Temporal-locality component: re-touch a recent line.
	if len(s.recentData) > 0 && s.rng.Hit(s.ch.recency) {
		e := s.recentData[s.rng.Intn(len(s.recentData))]
		if e.shared {
			return e.line, s.rng.Hit(s.ch.sharedWrite)
		}
		return e.line, s.rng.Hit(s.ch.write)
	}

	// OS data access: shared across every core.
	if s.rng.Hit(s.ch.os) {
		line = osBase + osLines + mem.Line(s.osZipf.Sample(s.rng))
		write = s.rng.Hit(s.ch.osWrite)
		s.pushData(line, true)
		return line, write
	}

	// Application shared region.
	if s.rng.Hit(s.ch.shared) {
		r := s.shZipf.Sample(s.rng)
		line = s.shBase + mem.Line(r%s.shLines)
		write = s.rng.Hit(s.ch.sharedWrite)
		s.pushData(line, true)
		return line, write
	}

	// Private region: streaming scan or Zipf reuse.
	if s.rng.Hit(s.ch.scan) {
		line = s.privBase + mem.Line(s.scan)
		s.scan++
		if s.scan >= s.privLines {
			s.scan = 0
		}
	} else {
		r := s.privZipf.Sample(s.rng)
		line = s.privBase + mem.Line(r%s.privLines)
	}
	write = s.rng.Hit(s.ch.write)
	s.pushData(line, false)
	return line, write
}

// pushData records a freshly generated line in the recency ring.
func (s *Stream) pushData(l mem.Line, shared bool) {
	if len(s.recentData) < s.dataCap {
		s.recentData = append(s.recentData, recEntry{l, shared})
		return
	}
	s.recentData[s.recDataPos] = recEntry{l, shared}
	s.recDataPos = (s.recDataPos + 1) % s.dataCap
}

// pushCode records a fresh branch target.
func (s *Stream) pushCode(l mem.Line) {
	if len(s.recentCode) < s.codeCap {
		s.recentCode = append(s.recentCode, l)
		return
	}
	s.recentCode[s.recCodePos] = l
	s.recCodePos = (s.recCodePos + 1) % s.codeCap
}

// Bound is a workload instantiated against a concrete cache geometry:
// one stream per core plus the measured-core mask.
type Bound struct {
	Spec    Spec
	Streams [mem.MaxCores]*Stream
	// Active marks cores whose instructions count toward performance.
	Active mem.CoreSet
}

// Bind instantiates the workload for a system whose L2 holds l2Lines
// cache lines and whose L1I holds l1iLines, using seed for perturbation.
// Cores without an assignment run the idle/system-services profile.
func (s Spec) Bind(l2Lines, l1iLines int, seed uint64) *Bound {
	return s.BindCores(l2Lines, l1iLines, seed, 1<<mem.MaxCores-1)
}

// BindCores is Bind for the streams of cores only; the others stay nil.
// Each stream it builds is the one Bind builds for that core: the seed's
// RNG is split for every core in the same order, whether or not its
// stream is built.
func (s Spec) BindCores(l2Lines, l1iLines int, seed uint64, cores mem.CoreSet) *Bound {
	master := sim.NewRNG(seed)
	b := &Bound{Spec: s, Active: s.ActiveCores()}
	zs := zipfSet{}

	scale := func(frac float64, base int) int {
		n := int(frac * float64(base))
		if n < 1 {
			n = 1
		}
		return n
	}

	assigned := [mem.MaxCores]bool{}
	appIdx := 0
	for _, a := range s.Assignments {
		appIdx++
		shLines := scale(a.App.SharedFootprint, l2Lines)
		cdLines := scale(a.App.CodeFootprint, l1iLines)
		privLines := scale(a.App.PrivateFootprint, l2Lines)
		// Multithreaded: one shared+code region for the whole app and a
		// per-thread slice of the private footprint. Instances: each core
		// gets wholly disjoint regions.
		for i, c := range a.Cores {
			assigned[c] = true
			if !cores.Has(c) {
				master.Split()
				if a.phase != nil {
					master.Split()
				}
				continue
			}
			var shB, cdB, pvB mem.Line
			pl := privLines
			if a.Multithreaded {
				shB = sharedBase + mem.Line(appIdx)*regionSpan
				cdB = codeBase + mem.Line(appIdx)*regionSpan
				pvB = privateBase + mem.Line(c)*regionSpan
				pl = max(1, privLines/len(a.Cores))
			} else {
				inst := appIdx*8 + i
				shB = sharedBase + mem.Line(inst)*regionSpan
				cdB = codeBase + mem.Line(inst)*regionSpan
				pvB = privateBase + mem.Line(c)*regionSpan
			}
			b.Streams[c] = newStream(c, a.App, pvB, shB, cdB, pl, shLines, cdLines, l1iLines, zs, master.Split())
			if a.phase != nil {
				// The alternate phase gets its own shared/code regions
				// (a different working set) but reuses the core's private
				// region base offset by half a span, so phase switches
				// change the footprint, not just the addresses.
				alt := a.phase.other
				altSh := scale(alt.SharedFootprint, l2Lines)
				altCd := scale(alt.CodeFootprint, l1iLines)
				altPl := max(1, scale(alt.PrivateFootprint, l2Lines)/len(a.Cores))
				altStream := newStream(c, alt,
					pvB+regionSpan/2,
					shB+regionSpan/2,
					cdB+regionSpan/2,
					altPl, altSh, altCd, l1iLines, zs, master.Split())
				b.Streams[c].phase = &phaseState{alt: altStream, period: a.phase.period}
			}
		}
	}
	idle := idleProfile()
	for c := 0; c < mem.MaxCores; c++ {
		if assigned[c] {
			continue
		}
		if !cores.Has(c) {
			master.Split()
			continue
		}
		pvB := privateBase + mem.Line(c)*regionSpan
		cdB := codeBase // idle/system code is OS-adjacent and common
		b.Streams[c] = newStream(c, idle, pvB, osBase+osLines, cdB,
			scale(idle.PrivateFootprint, l2Lines), osLines,
			scale(idle.CodeFootprint, l1iLines), l1iLines, zs, master.Split())
	}
	return b
}
