package arch

import (
	"fmt"

	"espnuca/internal/coherence"
	"espnuca/internal/mem"
)

// lineMap is an open-addressed, linearly probed hash table keyed by cache
// line, used for the index of the substrate's line records and for
// D-NUCA's last-requester table. It replaces the runtime map on the
// simulator's per-access path: line keys are fixed-stride addresses that
// hash well with a cheap mixer, entries store values inline, and deletion
// backward-shifts the probe chain so the table never accumulates
// tombstones.
//
// The API mirrors plain map semantics (get returns a copy, set overwrites,
// del removes) so call sites behave exactly like the maps they replace.
type lineMap[V any] struct {
	entries []lineMapEntry[V]
	mask    uint64
	count   int
}

type lineMapEntry[V any] struct {
	line mem.Line
	used bool
	val  V
}

// mixLine is the splitmix64 finalizer.
func mixLine(l mem.Line) uint64 {
	x := uint64(l)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newLineMap builds the smallest table that holds n entries before it
// grows: a power of two of at least 16 slots, at most three quarters of
// them live.
func newLineMap[V any](n int) lineMap[V] { return makeLineMap[V](lineMapSize(n)) }

// makeLineMap builds an empty table of size slots, a power of two.
func makeLineMap[V any](size int) lineMap[V] {
	return lineMap[V]{
		entries: make([]lineMapEntry[V], size),
		mask:    uint64(size - 1),
	}
}

// lineMapSize is the slot count newLineMap(n) allocates.
func lineMapSize(n int) int {
	size := 16
	for 3*size < 4*n {
		size *= 2
	}
	return size
}

// slot returns the index of l's entry, or -1 and the free slot that
// terminated the probe.
func (m *lineMap[V]) slot(l mem.Line) (found, free int) {
	i := mixLine(l) & m.mask
	for {
		e := &m.entries[i]
		if !e.used {
			return -1, int(i)
		}
		if e.line == l {
			return int(i), -1
		}
		i = (i + 1) & m.mask
	}
}

// get returns the value for l and whether it is present.
func (m *lineMap[V]) get(l mem.Line) (V, bool) {
	if found, _ := m.slot(l); found >= 0 {
		return m.entries[found].val, true
	}
	var zero V
	return zero, false
}

// set stores v under l, inserting or overwriting.
func (m *lineMap[V]) set(l mem.Line, v V) {
	found, free := m.slot(l)
	if found >= 0 {
		m.entries[found].val = v
		return
	}
	if 4*(m.count+1) > 3*len(m.entries) {
		m.grow()
		_, free = m.slot(l)
	}
	m.entries[free] = lineMapEntry[V]{line: l, used: true, val: v}
	m.count++
}

// ptr returns a pointer to l's value, materializing a zero value if
// absent, and whether it did. The pointer is valid only until the next
// set/ptr/del call.
func (m *lineMap[V]) ptr(l mem.Line) (v *V, added bool) {
	found, free := m.slot(l)
	if found >= 0 {
		return &m.entries[found].val, false
	}
	if 4*(m.count+1) > 3*len(m.entries) {
		m.grow()
		_, free = m.slot(l)
	}
	m.entries[free].line = l
	m.entries[free].used = true
	m.count++
	return &m.entries[free].val, true
}

// del removes l's entry if present, repairing the probe chain by
// backward-shifting (no tombstones), and reports whether it was.
func (m *lineMap[V]) del(l mem.Line) bool {
	found, _ := m.slot(l)
	if found < 0 {
		return false
	}
	i := uint64(found)
	for {
		m.entries[i] = lineMapEntry[V]{}
		j := i
		for {
			j = (j + 1) & m.mask
			e := &m.entries[j]
			if !e.used {
				m.count--
				return true
			}
			home := mixLine(e.line) & m.mask
			// e may fill slot i iff its home position is not cyclically
			// inside (i, j] — moving it would otherwise break its chain.
			if lineMapBetween(i, home, j) {
				continue
			}
			m.entries[i] = *e
			i = j
			break
		}
	}
}

// lineMapBetween reports whether h lies in the cyclic half-open range
// (i, j].
func lineMapBetween(i, h, j uint64) bool {
	if i <= j {
		return i < h && h <= j
	}
	return i < h || h <= j
}

// grow doubles the table and rehashes live entries.
func (m *lineMap[V]) grow() {
	old := m.entries
	m.entries = make([]lineMapEntry[V], 2*len(old))
	m.mask = uint64(len(m.entries) - 1)
	for i := range old {
		e := &old[i]
		if !e.used {
			continue
		}
		j := mixLine(e.line) & m.mask
		for m.entries[j].used {
			j = (j + 1) & m.mask
		}
		m.entries[j] = *e
	}
}

// forEach visits every entry; the callback must not mutate the table.
func (m *lineMap[V]) forEach(f func(mem.Line, V) error) error {
	for i := range m.entries {
		if !m.entries[i].used {
			continue
		}
		if err := f(m.entries[i].line, m.entries[i].val); err != nil {
			return err
		}
	}
	return nil
}

// lineRef is a transaction's handle to one line's record: the line and
// its slot in the slab.
type lineRef = coherence.Ref

// lineTable holds the substrate's per-line records in a slab, behind an
// index from line to slot. A record keeps its slot while it lives, so a
// transaction resolves its line once and reaches the record through the
// handle from then on, and an L2 block keeps its record's slot: the
// index is hashed once per transaction and once per deleted record, not
// at every step of the probe chain.
//
// Records are created only by open, at the start of a transaction, and
// so the slab grows, moving records, only there. A record the
// transaction empties stays in the index, unchanged in meaning (an empty
// record reads as an absent one), until the next open deletes it and
// frees its slot: a handle is never left pointing at a slot another line
// reuses.
type lineTable struct {
	index lineMap[uint32]
	recs  []lineRec
	// free lists the slots of deleted records; it grows to the most
	// slots free at once, which stays small.
	free []uint32
	// emptied lists the records the current transaction created or
	// emptied, the candidates for deletion at the next open.
	emptied []lineRef
}

// newLineTable builds a table for records records: a slab that holds
// them without growing, and an index of slots slots, a power of two.
func newLineTable(records, slots int) lineTable {
	return lineTable{
		index: makeLineMap[uint32](slots),
		recs:  make([]lineRec, 0, records),
	}
}

// reset returns the table to the state newLineTable(records, slots)
// builds: it drops every record, and rebuilds a slab or index that grew.
func (t *lineTable) reset(records, slots int) {
	if len(t.index.entries) != slots || cap(t.recs) != records {
		*t = newLineTable(records, slots)
		return
	}
	clear(t.index.entries)
	t.index.count = 0
	t.recs, t.free, t.emptied = t.recs[:0], t.free[:0], t.emptied[:0]
}

// open begins a transaction on l and returns l's handle, creating an
// empty record if l has none. It first deletes the records the last
// transaction left empty. Only a transaction's start may call it.
func (t *lineTable) open(l mem.Line) lineRef {
	if len(t.emptied) > 0 {
		t.sweep()
	}
	i, added := t.index.ptr(l)
	if added {
		*i = t.alloc()
		t.emptied = append(t.emptied, lineRef{Line: l, Index: *i})
	}
	return lineRef{Line: l, Index: *i}
}

// alloc takes a zeroed slot from the free list, or appends one.
func (t *lineTable) alloc() uint32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.recs[i] = lineRec{}
		return i
	}
	t.recs = append(t.recs, lineRec{})
	return uint32(len(t.recs) - 1)
}

// sweep deletes every emptied record that is still empty.
func (t *lineTable) sweep() {
	for _, r := range t.emptied {
		if t.recs[r.Index].empty() && t.index.del(r.Line) {
			t.free = append(t.free, r.Index)
		}
	}
	t.emptied = t.emptied[:0]
}

// find returns l's handle, or false when l has no record.
func (t *lineTable) find(l mem.Line) (lineRef, bool) {
	i, ok := t.index.get(l)
	return lineRef{Line: l, Index: i}, ok
}

// rec returns r's record.
func (t *lineTable) rec(r lineRef) *lineRec { return &t.recs[r.Index] }

// markEmptied queues r, which its transaction has just emptied, for
// deletion at the next open.
func (t *lineTable) markEmptied(r lineRef) { t.emptied = append(t.emptied, r) }

// forEach visits every record in the index; the callback must not add
// or delete records.
func (t *lineTable) forEach(f func(lineRef, *lineRec) error) error {
	return t.index.forEach(func(l mem.Line, i uint32) error {
		return f(lineRef{Line: l, Index: i}, &t.recs[i])
	})
}

// check verifies the slab against the index: the slab's live count is
// the index's count, and every index entry names its own in-use slot.
func (t *lineTable) check() error {
	if live := len(t.recs) - len(t.free); live != t.index.count {
		return fmt.Errorf("arch: %d live line records in the slab, %d in the index", live, t.index.count)
	}
	taken := make([]bool, len(t.recs))
	for _, i := range t.free {
		if int(i) >= len(t.recs) || taken[i] {
			return fmt.Errorf("arch: slab slot %d free-listed twice or past the slab", i)
		}
		taken[i] = true
	}
	return t.index.forEach(func(l mem.Line, i uint32) error {
		if int(i) >= len(t.recs) || taken[i] {
			return fmt.Errorf("arch: line %#x indexes slab slot %d, which is free, shared or past the slab", l, i)
		}
		taken[i] = true
		return nil
	})
}
