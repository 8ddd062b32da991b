package coherence

import (
	"math/rand"
	"testing"

	"espnuca/internal/mem"
)

// smallDirectory builds a directory with a tiny table so growth,
// collision chains and backward-shift deletion are exercised with few
// entries (the exported constructor starts at dirInitialCap).
func smallDirectory(cap int) *Directory {
	return &Directory{
		entries: make([]dirEntry, cap),
		mask:    uint64(cap - 1),
		gen:     1,
	}
}

func TestDirectoryInsertGrowLookup(t *testing.T) {
	d := smallDirectory(8)
	const n = 1000 // forces many doublings from cap 8
	for i := 0; i < n; i++ {
		s := d.State(mem.Line(i * 3))
		s.L1Tokens[i%TokensPerLine] = 1
		s.MemTokens = TokensPerLine - 1
		s.Owner = L1Holder(i % TokensPerLine)
	}
	if d.Lines() != n {
		t.Fatalf("Lines() = %d, want %d", d.Lines(), n)
	}
	for i := 0; i < n; i++ {
		s := d.Peek(mem.Line(i * 3))
		if s == nil {
			t.Fatalf("line %d lost after growth", i*3)
		}
		if s.L1Tokens[i%TokensPerLine] != 1 || s.Owner != L1Holder(i%TokensPerLine) {
			t.Fatalf("line %d state corrupted after growth: %+v", i*3, s)
		}
	}
	// Untouched lines must stay invisible.
	if d.Peek(mem.Line(1)) != nil {
		t.Fatal("Peek materialized an untouched line")
	}
}

func TestDirectoryForgetOnlyImplicit(t *testing.T) {
	d := smallDirectory(8)
	s := d.State(10)
	s.MemTokens = TokensPerLine - 1
	s.L1Tokens[0] = 1
	s.Owner = L1Holder(0)
	if d.Forget(10) {
		t.Fatal("Forget removed a line with tokens on chip")
	}
	if d.Peek(10) == nil {
		t.Fatal("non-implicit entry vanished")
	}
	// Return the token; now the state is implicit and Forget may erase it.
	s = d.State(10)
	s.L1Tokens[0] = 0
	s.MemTokens = TokensPerLine
	s.Owner = HolderMem
	if !d.Forget(10) {
		t.Fatal("Forget refused an implicit-state entry")
	}
	if d.Peek(10) != nil {
		t.Fatal("entry still visible after Forget")
	}
	if d.Lines() != 0 {
		t.Fatalf("Lines() = %d after Forget", d.Lines())
	}
	// Re-materialization must be bit-identical to first touch.
	if *d.State(10) != implicitState {
		t.Fatal("re-materialized state differs from implicit")
	}
	if d.Forget(999) {
		t.Fatal("Forget reported removing an absent line")
	}
}

// TestDirectoryForgetChains stresses backward-shift deletion on probe
// chains: fill a small table (guaranteed collisions), delete entries in
// varying order, and check every survivor stays reachable.
func TestDirectoryForgetChains(t *testing.T) {
	for pass := 0; pass < 32; pass++ {
		d := smallDirectory(16)
		rng := rand.New(rand.NewSource(int64(pass)))
		lines := rng.Perm(11) // load factor ~0.69, heavy chaining
		for _, l := range lines {
			d.State(mem.Line(l))
		}
		// Delete a random subset (all implicit, so Forget accepts).
		deleted := map[mem.Line]bool{}
		for _, l := range rng.Perm(11)[:6] {
			if !d.Forget(mem.Line(l)) {
				t.Fatalf("pass %d: Forget(%d) failed", pass, l)
			}
			deleted[mem.Line(l)] = true
		}
		for _, l := range lines {
			got := d.Peek(mem.Line(l))
			if deleted[mem.Line(l)] && got != nil {
				t.Fatalf("pass %d: deleted line %d still reachable", pass, l)
			}
			if !deleted[mem.Line(l)] && got == nil {
				t.Fatalf("pass %d: surviving line %d unreachable after shifts", pass, l)
			}
		}
		if d.Lines() != 5 {
			t.Fatalf("pass %d: Lines() = %d, want 5", pass, d.Lines())
		}
	}
}

func TestDirectoryResetCycles(t *testing.T) {
	d := smallDirectory(8)
	for cycle := 0; cycle < 100; cycle++ {
		for i := 0; i < 20; i++ {
			s := d.State(mem.Line(i))
			s.L2Tokens = uint8(cycle % 3)
			s.MemTokens = TokensPerLine - uint8(cycle%3)
			if cycle%3 != 0 {
				s.Owner = HolderL2
			}
		}
		if d.Lines() != 20 {
			t.Fatalf("cycle %d: Lines() = %d", cycle, d.Lines())
		}
		d.Reset()
		if d.Lines() != 0 {
			t.Fatalf("cycle %d: Lines() = %d after Reset", cycle, d.Lines())
		}
		for i := 0; i < 20; i++ {
			if d.Peek(mem.Line(i)) != nil {
				t.Fatalf("cycle %d: line %d survived Reset", cycle, i)
			}
		}
		// First touch after Reset must observe pristine implicit state,
		// not the stale bytes still sitting in the recycled slots.
		if *d.State(5) != implicitState {
			t.Fatalf("cycle %d: stale state leaked across Reset", cycle)
		}
		d.Forget(5)
	}
}

// TestDirectoryDifferential drives the open-addressed table and a plain
// map reference with the same random operation stream and requires them
// to agree at every step. Small table + small line universe maximizes
// collisions, growth, and backward-shift traffic.
func TestDirectoryDifferential(t *testing.T) {
	d := smallDirectory(8)
	ref := map[mem.Line]LineState{}
	rng := rand.New(rand.NewSource(42))
	const universe = 96

	for op := 0; op < 200_000; op++ {
		l := mem.Line(rng.Intn(universe))
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // State + random mutation
			s := d.State(l)
			r, ok := ref[l]
			if !ok {
				r = implicitState
			}
			if *s != r {
				t.Fatalf("op %d: State(%d) = %+v, ref %+v", op, l, *s, r)
			}
			// Mutate both sides identically (not necessarily a legal
			// token distribution; the table must store bytes faithfully).
			c := rng.Intn(TokensPerLine)
			s.L1Tokens[c] = uint8(rng.Intn(3))
			s.MemTokens = uint8(rng.Intn(int(TokensPerLine) + 1))
			s.Dirty = rng.Intn(2) == 0
			s.Owner = Holder(rng.Intn(11) - 2)
			if rng.Intn(8) == 0 {
				*s = implicitState // make some entries forgettable
			}
			ref[l] = *s
		case 4, 5, 6: // Peek
			s := d.Peek(l)
			r, ok := ref[l]
			if ok != (s != nil) {
				t.Fatalf("op %d: Peek(%d) present=%v, ref present=%v", op, l, s != nil, ok)
			}
			if ok && *s != r {
				t.Fatalf("op %d: Peek(%d) = %+v, ref %+v", op, l, *s, r)
			}
		case 7, 8: // Forget
			removed := d.Forget(l)
			r, ok := ref[l]
			wantRemoved := ok && r == implicitState
			if removed != wantRemoved {
				t.Fatalf("op %d: Forget(%d) = %v, want %v (ref %+v)", op, l, removed, wantRemoved, r)
			}
			if removed {
				delete(ref, l)
			}
		case 9: // occasional Reset
			if rng.Intn(200) == 0 {
				d.Reset()
				ref = map[mem.Line]LineState{}
			}
		}
		if d.Lines() != len(ref) {
			t.Fatalf("op %d: Lines() = %d, ref %d", op, d.Lines(), len(ref))
		}
	}
	// Final full sweep.
	for l := mem.Line(0); l < universe; l++ {
		s := d.Peek(l)
		r, ok := ref[l]
		if ok != (s != nil) || (ok && *s != r) {
			t.Fatalf("final: line %d table/ref mismatch", l)
		}
	}
}
