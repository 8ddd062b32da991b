package arch

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"espnuca/internal/cache"
	"espnuca/internal/coherence"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// TestLineMapDifferential drives lineMap and a plain map with the same
// random operation stream; a tiny initial table forces collisions, growth
// and backward-shift deletion.
func TestLineMapDifferential(t *testing.T) {
	m := lineMap[int]{entries: make([]lineMapEntry[int], 8), mask: 7}
	ref := map[mem.Line]int{}
	rng := rand.New(rand.NewSource(7))
	const universe = 128

	for op := 0; op < 200_000; op++ {
		l := mem.Line(rng.Intn(universe))
		switch rng.Intn(4) {
		case 0: // set
			v := rng.Int()
			m.set(l, v)
			ref[l] = v
		case 1: // ptr (materializes zero)
			p := m.ptr(l)
			r, ok := ref[l]
			if !ok {
				r = 0
				ref[l] = 0
			}
			if *p != r {
				t.Fatalf("op %d: ptr(%d) = %d, ref %d", op, l, *p, r)
			}
			*p = op
			ref[l] = op
		case 2: // get
			v, ok := m.get(l)
			r, rok := ref[l]
			if ok != rok || v != r {
				t.Fatalf("op %d: get(%d) = (%d,%v), ref (%d,%v)", op, l, v, ok, r, rok)
			}
		case 3: // del
			m.del(l)
			delete(ref, l)
		}
		if m.count != len(ref) {
			t.Fatalf("op %d: count %d, ref %d", op, m.count, len(ref))
		}
	}
	for l := mem.Line(0); l < universe; l++ {
		v, ok := m.get(l)
		r, rok := ref[l]
		if ok != rok || v != r {
			t.Fatalf("final: line %d mismatch (%d,%v) vs (%d,%v)", l, v, ok, r, rok)
		}
	}
}

// TestLineMapDeleteChains stresses backward-shift deletion on probe
// chains: fill a small table (guaranteed collisions), delete entries in
// varying order, and check every survivor stays reachable.
func TestLineMapDeleteChains(t *testing.T) {
	for pass := 0; pass < 32; pass++ {
		m := lineMap[int]{entries: make([]lineMapEntry[int], 16), mask: 15}
		rng := rand.New(rand.NewSource(int64(pass)))
		lines := rng.Perm(11) // load factor ~0.69, heavy chaining
		for _, l := range lines {
			m.set(mem.Line(l), l)
		}
		deleted := map[mem.Line]bool{}
		for _, l := range rng.Perm(11)[:6] {
			m.del(mem.Line(l))
			deleted[mem.Line(l)] = true
		}
		for _, l := range lines {
			v, ok := m.get(mem.Line(l))
			if deleted[mem.Line(l)] && ok {
				t.Fatalf("pass %d: deleted line %d still reachable", pass, l)
			}
			if !deleted[mem.Line(l)] && (!ok || v != l) {
				t.Fatalf("pass %d: surviving line %d unreachable after shifts", pass, l)
			}
		}
		if m.count != 5 {
			t.Fatalf("pass %d: count %d, want 5", pass, m.count)
		}
	}
}

// TestNewLineMapHoldsWithoutGrowing checks newLineMap's sizing: a table
// built for n entries takes n inserts without growing, and half its size
// would not hold them.
func TestNewLineMapHoldsWithoutGrowing(t *testing.T) {
	scaled := ScaledConfig()
	for _, n := range []int{0, 1, 12, 13, 24, 25, 1000, 3 << 12, lineRecords(scaled)} {
		m := newLineMap[int](n)
		size := len(m.entries)
		for l := 0; l < n; l++ {
			m.set(mem.Line(l), l)
		}
		if len(m.entries) != size {
			t.Errorf("newLineMap(%d): grew from %d to %d slots", n, size, len(m.entries))
		}
		if size > 16 && 3*(size/2) >= 4*n {
			t.Errorf("newLineMap(%d): %d slots, where %d would hold it", n, size, size/2)
		}
	}
	s, err := NewSubstrate(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.lines.entries); got != 1<<15 {
		t.Errorf("the scaled machine's line table has %d slots, want %d", got, 1<<15)
	}
}

// BenchmarkLineMap times the substrate's line record in a steady state,
// at the scaled machine's table size holding 16,792 live records, the
// most an esp-nuca FT run at the default budgets holds: each op finds a
// live line, materializes a new one with ptr and deletes the oldest.
func BenchmarkLineMap(b *testing.B) {
	const (
		live = 16_792
		ring = 1 << 16 // distinct lines cycled through the table
	)
	cfg := ScaledConfig()
	m := newLineMap[lineRec](cfg.L2Lines() + 2*cfg.Cores*cfg.L1ILines())
	lines := make([]mem.Line, ring)
	for i, p := range rand.New(rand.NewSource(1)).Perm(1 << 22)[:ring] {
		lines[i] = 0x4000_0000 + mem.Line(p)
	}
	for _, l := range lines[:live] {
		m.ptr(l).n = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.find(lines[(i+live/2)%ring]) == nil {
			b.Fatal("a live line is missing")
		}
		m.ptr(lines[(i+live)%ring]).n = 1
		m.del(lines[i%ring])
	}
}

// TestLineRecordSize pins the merged per-line record to one 64-byte cache
// line, table key and slot flag included.
func TestLineRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(lineMapEntry[lineRec]{}); got > 64 {
		t.Fatalf("line record entry is %d bytes, want at most 64", got)
	}
}

// TestForgetStatusKeepsLiveTokens checks the record's deletion rule: the
// status goes once the line has left the chip, but token state goes only
// when it has decayed back to all-at-memory, and re-materializes exactly
// that state.
func TestForgetStatusKeepsLiveTokens(t *testing.T) {
	s, err := NewSubstrate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const l = 10
	s.statusOf(l, 3)
	s.Dir.L2Fill(l, 2) // two tokens on chip, no L1 sharer, no L2 copy
	s.maybeForgetStatus(l)
	if _, _, known := s.peekStatus(l); known {
		t.Fatal("status survived the line leaving the chip")
	}
	if s.Peek(l) == nil || s.lines.count != 1 {
		t.Fatal("token state with tokens on chip was dropped")
	}
	s.Dir.L2Evict(l)
	s.maybeForgetStatus(l)
	if s.Peek(l) != nil || s.lines.count != 0 {
		t.Fatal("all-at-memory token state kept its record")
	}
	if *s.State(l) != coherence.MemoryState() {
		t.Fatal("re-materialized state differs from all-at-memory")
	}
	s.maybeForgetStatus(999) // absent line: no-op
}

// mapTable is a map-backed coherence.Table with the lifetime the
// directory's own table had: a state is materialized on State and erased
// only by refLines.maybeForget.
type mapTable map[mem.Line]*coherence.LineState

func (m mapTable) State(l mem.Line) *coherence.LineState {
	st, ok := m[l]
	if !ok {
		v := coherence.MemoryState()
		st = &v
		m[l] = st
	}
	return st
}

func (m mapTable) Peek(l mem.Line) *coherence.LineState { return m[l] }

// refLines is the substrate's per-line bookkeeping as it was kept before
// the record merges: a copy table, a private-bit table and the coherence
// directory's token table, each a plain map, with the old semantics.
type refLines struct {
	where  map[mem.Line][]l2loc
	status map[mem.Line]refStatus
	tokens mapTable
	dir    *coherence.Directory
}

type refStatus struct {
	shared bool
	owner  int
}

// maybeForget mirrors maybeForgetStatus as it was: drop the status once
// the line has no copy and no L1 sharer, then forget the token state if
// it is all-at-memory.
func (r *refLines) maybeForget(line mem.Line) {
	if len(r.where[line]) > 0 {
		return
	}
	st := r.tokens[line]
	if st != nil && st.Sharers() != 0 {
		return
	}
	delete(r.status, line)
	if st != nil && *st == coherence.MemoryState() {
		delete(r.tokens, line)
	}
}

func (r *refLines) remove(line mem.Line, bank int) {
	locs, ok := r.where[line]
	if ok {
		for i, loc := range locs {
			if int(loc.bank) == bank {
				locs[i] = locs[len(locs)-1]
				locs = locs[:len(locs)-1]
				break
			}
		}
		if len(locs) > 0 {
			r.where[line] = locs
			return
		}
		delete(r.where, line)
	}
	r.maybeForget(line)
}

// TestLineRecordDifferential drives the substrate's line record and the
// three-table reference with the same random operation stream, on a tiny
// table so growth and backward-shift deletion happen throughout. Token
// movements through the directory make statuses outlive their last copy
// and token state outlive both; copies added without a status cover the
// non-SP architectures.
func TestLineRecordDifferential(t *testing.T) {
	s, err := NewSubstrate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.lines = lineMap[lineRec]{entries: make([]lineMapEntry[lineRec], 8), mask: 7}
	ref := refLines{where: map[mem.Line][]l2loc{}, status: map[mem.Line]refStatus{}, tokens: mapTable{}}
	ref.dir = coherence.NewDirectory(ref.tokens)
	ref.dir.Check = true
	rng := rand.New(rand.NewSource(11))
	const universe = 96
	check := func(op int, l mem.Line) {
		t.Helper()
		got, want := s.l2Has(l), ref.where[l]
		if len(got) != len(want) {
			t.Fatalf("op %d: line %d copies %v, ref %v", op, l, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %d: line %d copies %v, ref %v", op, l, got, want)
			}
		}
		shared, owner, known := s.peekStatus(l)
		st, ok := ref.status[l]
		if known != ok || shared != st.shared || owner != st.owner {
			t.Fatalf("op %d: line %d status (%v,%d,%v), ref %+v,%v", op, l, shared, owner, known, st, ok)
		}
		gotTok, wantTok := s.Dir.Peek(l), ref.dir.Peek(l)
		if (gotTok == nil) != (wantTok == nil) || gotTok != nil && *gotTok != *wantTok {
			t.Fatalf("op %d: line %d tokens %+v, ref %+v", op, l, gotTok, wantTok)
		}
	}
	// both applies one directory operation to the substrate and the
	// reference.
	both := func(f func(d *coherence.Directory)) {
		f(s.Dir)
		f(ref.dir)
	}

	for op := 0; op < 300_000; op++ {
		l := mem.Line(rng.Intn(universe))
		c := rng.Intn(8)
		switch rng.Intn(13) {
		case 0, 1: // add a copy in a bank the line does not use yet
			locs := ref.where[l]
			if len(locs) == maxCopies {
				break
			}
			bank := rng.Intn(32)
			dup := false
			for _, loc := range locs {
				dup = dup || int(loc.bank) == bank
			}
			if dup {
				break
			}
			loc := l2loc{bank: uint8(bank), class: cache.Class(rng.Intn(4)), set: uint16(rng.Intn(8))}
			ref.where[l] = append(locs, loc)
			s.addCopy(l, loc)
		case 2, 3: // remove a copy, or a bank the line does not use
			bank := rng.Intn(32)
			if locs := ref.where[l]; len(locs) > 0 && rng.Intn(4) > 0 {
				bank = int(locs[rng.Intn(len(locs))].bank)
			}
			ref.remove(l, bank)
			s.removeWhere(l, bank)
		case 4: // statusOf
			shared, owner := s.statusOf(l, c)
			st, ok := ref.status[l]
			if !ok {
				st = refStatus{owner: c}
			} else if !st.shared && st.owner != c {
				st.shared = true
			}
			ref.status[l] = st
			if shared != st.shared || owner != st.owner {
				t.Fatalf("op %d: statusOf(%d,%d) = (%v,%d), ref %+v", op, l, c, shared, owner, st)
			}
		case 5: // markShared
			st := ref.status[l]
			st.shared = true
			ref.status[l] = st
			s.markShared(l)
		case 6: // maybeForgetStatus
			ref.maybeForget(l)
			s.maybeForgetStatus(l)
		case 7: // an L1 takes a read token, so the status outlives the copies
			both(func(d *coherence.Directory) { d.GrantReadL1(l, c) })
		case 8: // every L1 drops the line to memory
			if st := ref.dir.Peek(l); st != nil {
				mask := st.Sharers()
				for h := 0; h < 8; h++ {
					if mask&(1<<uint(h)) != 0 {
						both(func(d *coherence.Directory) { d.L1Evict(l, h, false) })
					}
				}
			}
		case 9: // a writer collects every token
			both(func(d *coherence.Directory) { d.GrantWriteL1(l, c) })
		case 10: // an L1 write-back to the L2, possibly dirty
			dirty := rng.Intn(2) == 0
			both(func(d *coherence.Directory) {
				d.L1Evict(l, c, true)
				if dirty {
					d.WriteBackDirty(l)
				}
			})
		case 11: // a fill from memory
			n := uint8(rng.Intn(coherence.TokensPerLine + 1))
			both(func(d *coherence.Directory) { d.L2Fill(l, n) })
		case 12: // the L2 releases its tokens to memory
			both(func(d *coherence.Directory) { d.L2Evict(l) })
		}
		check(op, l)
		if op%1024 == 0 {
			keys := map[mem.Line]bool{}
			for k := range ref.where {
				keys[k] = true
			}
			for k := range ref.status {
				keys[k] = true
			}
			for k := range ref.tokens {
				keys[k] = true
			}
			if s.lines.count != len(keys) {
				t.Fatalf("op %d: %d records, ref %d lines", op, s.lines.count, len(keys))
			}
		}
	}
	for l := mem.Line(0); l < universe; l++ {
		check(-1, l)
	}
}

// TestAddCopyPanicsPastBound checks that a ninth copy of a line panics
// and names the line and the bank instead of overwriting a copy.
func TestAddCopyPanicsPastBound(t *testing.T) {
	s, err := NewSubstrate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < maxCopies; b++ {
		s.addCopy(0x40, l2loc{bank: uint8(b)})
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "0x40") || !strings.Contains(msg, "bank 9") {
			t.Fatalf("panic %q does not name line 0x40 and bank 9", msg)
		}
	}()
	s.addCopy(0x40, l2loc{bank: 9})
}

// TestResidencyCopyBound drives all eight cores over a few lines strided
// to collide in the same sets, on every architecture, and checks that no
// line ever holds more than maxCopies copies (addCopy would panic) and
// that the bookkeeping stays consistent.
func TestResidencyCopyBound(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			most := 0
			for _, nlines := range []int{8, 32, 96} {
				for _, writeFrac := range []float64{0, 0.05, 0.3} {
					cfg := testConfig()
					sys, err := Build(name, cfg)
					if err != nil {
						t.Fatal(err)
					}
					s := sys.Sub()
					// Four neighbouring lines span four banks of a group;
					// each further four repeat them one Banks*SetsPerBank
					// stride on, into the same sets under both mappings.
					stride := mem.Line(cfg.Banks * cfg.SetsPerBank)
					rng := sim.NewRNG(uint64(nlines) + uint64(writeFrac*100))
					var tm sim.Cycle
					for op := 0; op < 6000; op++ {
						c := rng.Intn(8)
						i := rng.Intn(nlines)
						line := mem.Line(i%4) + mem.Line(i/4)*stride
						write := rng.Bool(writeFrac)
						if s.L1.Lookup(c, line, write, false) {
							continue
						}
						res := sys.Access(tm, c, line, write)
						if n := len(s.l2Has(line)); n > most {
							most = n
						}
						if wb := s.L1.Fill(c, line, write, false); wb.Valid {
							sys.WriteBack(res.Done, c, wb.Line, wb.Dirty)
						}
						tm = res.Done
					}
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("%d lines, writes %.2f: %v", nlines, writeFrac, err)
					}
					s.lines.forEach(func(_ mem.Line, r lineRec) error {
						if int(r.n) > most {
							most = int(r.n)
						}
						return nil
					})
				}
			}
			if most > maxCopies {
				t.Fatalf("a line held %d copies, bound %d", most, maxCopies)
			}
			t.Logf("most copies of one line: %d", most)
		})
	}
}
