// Package coherence implements the simulator's token-counting coherence
// substrate (paper §2.3). Correctness follows Token Coherence: every line
// has a fixed number of tokens (one per L1) plus an owner token; a reader
// needs at least one token, a writer needs all of them. The home L2 bank
// acts as the TokenD-style performance directory: it knows which L1s hold
// tokens, so requests are forwarded point-to-point rather than broadcast.
//
// The package tracks where tokens are (L1s, on-chip L2, memory) and
// asserts conservation after every transaction when checking is enabled.
// Timing is computed by the architecture layer; this package is the
// bookkeeping that makes hits, misses, interventions and invalidations
// mean the same thing in every evaluated architecture.
package coherence

import (
	"fmt"

	"espnuca/internal/mem"
)

// TokensPerLine is the number of plain tokens per line: one per core.
const TokensPerLine = mem.MaxCores

// LineState tracks token placement and sharing for one line that has been
// touched on chip. Lines never touched are implicitly "all tokens at
// memory".
type LineState struct {
	// L1Tokens[c] is the token count held by core c's L1.
	L1Tokens [TokensPerLine]uint8
	// L2Tokens are tokens held somewhere in the L2 (the architecture
	// tracks in which bank(s) the data lives).
	L2Tokens uint8
	// MemTokens are tokens at the memory controller.
	MemTokens uint8
	// Owner is where the owner token (and responsibility for dirty data)
	// sits.
	Owner Holder
	// Dirty marks the on-chip copy as newer than memory.
	Dirty bool
}

// Holder identifies a token-holding location.
type Holder int8

// Holder values: memory, the L2, or L1 of core c (HolderL1 + c).
const (
	HolderMem Holder = -2
	HolderL2  Holder = -1
	HolderL1  Holder = 0 // add the core index
)

// L1Holder returns the holder value for core c's L1.
func L1Holder(c int) Holder { return HolderL1 + Holder(c) }

// Sharers returns a bitmask of cores whose L1 holds at least one token.
func (s *LineState) Sharers() mem.CoreSet {
	var m mem.CoreSet
	for c := 0; c < TokensPerLine; c++ {
		if s.L1Tokens[c] > 0 {
			m = m.With(c)
		}
	}
	return m
}

// SharerCount returns the number of L1s holding tokens.
func (s *LineState) SharerCount() int {
	n := 0
	for c := 0; c < TokensPerLine; c++ {
		if s.L1Tokens[c] > 0 {
			n++
		}
	}
	return n
}

// total returns the token sum for conservation checking.
func (s *LineState) total() int {
	t := int(s.L2Tokens) + int(s.MemTokens)
	for _, v := range s.L1Tokens {
		t += int(v)
	}
	return t
}

// MemoryState returns the state of a line with every token at memory,
// memory owning, clean: a line never touched on chip, or one whose tokens
// have all gone home. A Table may drop a state that has decayed back to
// it; Peek then returns nil.
func MemoryState() LineState {
	return LineState{MemTokens: TokensPerLine, Owner: HolderMem}
}

// Ref is a handle to one line's record in a Table: the line and the
// table's index for it. The table hands refs out, keeps each valid for a
// whole transaction, and reads Index back; the directory only passes it
// on.
type Ref struct {
	Line  mem.Line
	Index uint32
}

// Table is the per-line storage the directory reads and writes token
// state through. The directory keeps no table of its own: the
// architecture layer keeps each line's LineState in its one per-line
// record (arch.Substrate implements Table), beside the line's L2 copies
// and private bit. A transaction resolves its line to a Ref once, through
// the table, and passes the Ref to every directory call; a state pointer
// stays valid while its Ref does.
type Table interface {
	// Find returns l's handle, or false when l has no record (its tokens
	// are all at memory).
	Find(l mem.Line) (Ref, bool)
	// State returns r's state, materializing MemoryState on first touch.
	State(r Ref) *LineState
	// Peek returns r's state without materializing it: nil means
	// MemoryState.
	Peek(r Ref) *LineState
}

// Directory is the global token/sharing state, logically distributed
// across the home L2 bank controllers (TokenD performance policy). The
// simulator centralizes it for efficiency; each access serializes at the
// home bank in timing, which is what makes the centralization legal.
// State and Peek come from the Table the directory is built over.
type Directory struct {
	Table
	// Check enables token-conservation verification after every mutation
	// (tests and debug runs).
	Check bool
}

// NewDirectory returns a directory over t.
func NewDirectory(t Table) *Directory { return &Directory{Table: t} }

// PeekLine returns l's token state without a handle: nil when l has no
// record or its tokens are all at memory.
func (d *Directory) PeekLine(l mem.Line) *LineState {
	if r, ok := d.Find(l); ok {
		return d.Peek(r)
	}
	return nil
}

// Verify checks token conservation for r's line and returns an error on
// violation.
func (d *Directory) Verify(r Ref) error {
	l := r.Line
	s := d.Peek(r)
	if s == nil {
		return nil
	}
	if got := s.total(); got != TokensPerLine {
		return fmt.Errorf("coherence: line %#x holds %d tokens, want %d", l, got, TokensPerLine)
	}
	// The owner must actually hold a token (or be memory).
	switch {
	case s.Owner == HolderMem:
		if s.Dirty {
			return fmt.Errorf("coherence: line %#x dirty but owned by memory", l)
		}
	case s.Owner == HolderL2:
		if s.L2Tokens == 0 {
			return fmt.Errorf("coherence: line %#x owned by L2 holding no tokens", l)
		}
	default:
		c := int(s.Owner - HolderL1)
		if c < 0 || c >= TokensPerLine || s.L1Tokens[c] == 0 {
			return fmt.Errorf("coherence: line %#x owned by L1 %d holding no tokens", l, c)
		}
	}
	return nil
}

func (d *Directory) check(r Ref) {
	if !d.Check {
		return
	}
	if err := d.Verify(r); err != nil {
		panic(err)
	}
}

// --- Token movement primitives ---
//
// These are the only mutation points; each re-verifies conservation when
// checking is on.

// GrantReadL1 moves one token to core c's L1 from the richest other
// holder, for a load hit/fill. It is a no-op if c already holds a token.
func (d *Directory) GrantReadL1(r Ref, c int) {
	s := d.State(r)
	if s.L1Tokens[c] > 0 {
		return
	}
	switch {
	case s.L2Tokens > 0:
		s.L2Tokens--
		if s.L2Tokens == 0 && s.Owner == HolderL2 {
			// The owner token travels with the last token: the data (and
			// any dirty responsibility) moves to the requesting L1.
			s.Owner = L1Holder(c)
		}
	case s.MemTokens > 0:
		s.MemTokens--
		if s.MemTokens == 0 && s.Owner == HolderMem {
			s.Owner = L1Holder(c)
		}
	default:
		// Steal from the richest L1 (must hold >1, or be the owner with
		// exactly 1 in which case ownership moves too).
		rich := -1
		for i := 0; i < TokensPerLine; i++ {
			if i != c && s.L1Tokens[i] > 0 && (rich < 0 || s.L1Tokens[i] > s.L1Tokens[rich]) {
				rich = i
			}
		}
		if rich < 0 {
			panic(fmt.Sprintf("coherence: no token source for line %#x", r.Line))
		}
		s.L1Tokens[rich]--
		if s.L1Tokens[rich] == 0 && s.Owner == L1Holder(rich) {
			s.Owner = L1Holder(c)
		}
	}
	s.L1Tokens[c]++
	d.check(r)
}

// GrantWriteL1 collects every token at core c's L1 (a GETX): all other L1
// copies are invalidated, the L2 and memory cede their tokens, c becomes
// the owner and the line is marked dirty.
func (d *Directory) GrantWriteL1(r Ref, c int) {
	s := d.State(r)
	for i := 0; i < TokensPerLine; i++ {
		if i != c {
			s.L1Tokens[i] = 0
		}
	}
	s.L1Tokens[c] = TokensPerLine
	s.L2Tokens = 0
	s.MemTokens = 0
	s.Owner = L1Holder(c)
	s.Dirty = true
	d.check(r)
}

// L1Evict releases core c's tokens to the L2 (toL2=true, an L2 allocation
// of the write-back) or to memory. Ownership follows the tokens when c was
// the owner. It returns whether the line was dirty at c (write-back data
// needed).
func (d *Directory) L1Evict(r Ref, c int, toL2 bool) (dirty bool) {
	s := d.State(r)
	n := s.L1Tokens[c]
	if n == 0 {
		return false
	}
	s.L1Tokens[c] = 0
	wasOwner := s.Owner == L1Holder(c)
	if toL2 {
		s.L2Tokens += n
		if wasOwner {
			s.Owner = HolderL2
		}
	} else {
		s.MemTokens += n
		if wasOwner {
			s.Owner = HolderMem
			if s.Dirty {
				dirty = true
				s.Dirty = false // memory becomes current
			}
		}
	}
	if wasOwner && s.Dirty && toL2 {
		dirty = true // data moves with the owner token to L2
	}
	d.check(r)
	return dirty
}

// L2Fill moves n tokens from memory to the L2 (a fill from DRAM).
func (d *Directory) L2Fill(r Ref, n uint8) {
	s := d.State(r)
	if n > s.MemTokens {
		n = s.MemTokens
	}
	s.MemTokens -= n
	s.L2Tokens += n
	if s.Owner == HolderMem && s.L2Tokens > 0 {
		s.Owner = HolderL2
	}
	d.check(r)
}

// L2Evict releases all L2 tokens back to memory, returning whether the L2
// copy was dirty (write-back to DRAM required).
func (d *Directory) L2Evict(r Ref) (dirty bool) {
	s := d.State(r)
	if s.L2Tokens == 0 {
		return false
	}
	s.MemTokens += s.L2Tokens
	s.L2Tokens = 0
	if s.Owner == HolderL2 {
		s.Owner = HolderMem
		if s.Dirty {
			dirty = true
			s.Dirty = false
		}
	}
	d.check(r)
	return dirty
}

// WriteBackDirty marks the L2 copy dirty (used when a dirty L1 write-back
// lands in an L2 bank).
func (d *Directory) WriteBackDirty(r Ref) {
	s := d.State(r)
	if s.L2Tokens > 0 {
		s.Dirty = true
		if s.Owner == HolderMem {
			s.Owner = HolderL2
		}
	}
	d.check(r)
}
