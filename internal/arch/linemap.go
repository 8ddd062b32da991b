package arch

import "espnuca/internal/mem"

// lineMap is an open-addressed, linearly probed hash table keyed by cache
// line, used for the substrate's residency (where) and private-bit
// (status) bookkeeping. Like the coherence directory it replaces the
// runtime map on the simulator's per-access path: line keys are
// fixed-stride addresses that hash well with a cheap mixer, entries store
// values inline, and deletion backward-shifts the probe chain so the
// table never accumulates tombstones.
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

// mixLine is the splitmix64 finalizer (shared shape with the coherence
// directory's hash).
func mixLine(l mem.Line) uint64 {
	x := uint64(l)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newLineMap builds a table with capacity hint (rounded up to a power of
// two).
func newLineMap[V any](hint int) lineMap[V] {
	cap := 16
	for cap < hint {
		cap *= 2
	}
	return lineMap[V]{
		entries: make([]lineMapEntry[V], cap),
		mask:    uint64(cap - 1),
	}
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
// absent. The pointer is valid only until the next set/ptr/del call.
func (m *lineMap[V]) ptr(l mem.Line) *V {
	found, free := m.slot(l)
	if found >= 0 {
		return &m.entries[found].val
	}
	if 4*(m.count+1) > 3*len(m.entries) {
		m.grow()
		_, free = m.slot(l)
	}
	m.entries[free].line = l
	m.entries[free].used = true
	m.count++
	return &m.entries[free].val
}

// del removes l's entry if present, repairing the probe chain by
// backward-shifting (no tombstones).
func (m *lineMap[V]) del(l mem.Line) {
	found, _ := m.slot(l)
	if found < 0 {
		return
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
				return
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

// residency is the substrate's where table: every L2 copy of each line,
// in a lineMap, plus a pool of residency slices. When a line's last copy
// dies its emptied slice returns to the pool, and the next line filled
// takes it back, so a run stops allocating once the table and the pool
// reach their working-set size.
type residency struct {
	lineMap[[]l2loc]
	pool locPool
}

// locPool holds emptied residency slices and the slab that cold fills
// carve new ones from.
type locPool struct {
	free [][]l2loc
	slab []l2loc
}

// slabCarve is the capacity of a slice carved from a slab: one copy for a
// private or shared line, two once a replica or victim joins it. A line
// that gathers more copies outgrows its carve through append, which
// copies it out of the slab rather than into its neighbour's.
const slabCarve = 2

// slabSlices is how many carves one slab allocation provides.
const slabSlices = 256

func newResidency(hint int) residency {
	return residency{lineMap: newLineMap[[]l2loc](hint)}
}

// take returns an empty residency slice: a recycled one if the pool has
// any, otherwise a fresh carve of the slab.
func (p *locPool) take() []l2loc {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	if len(p.slab) < slabCarve {
		p.slab = make([]l2loc, slabCarve*slabSlices)
	}
	s := p.slab[:0:slabCarve]
	p.slab = p.slab[slabCarve:]
	return s
}

// add appends a copy of line to its residency.
func (r *residency) add(line mem.Line, loc l2loc) {
	p := r.ptr(line)
	if *p == nil {
		*p = r.pool.take()
	}
	*p = append(*p, loc)
}

// remove drops line's copy in bank, moving the last copy into its place,
// and reports whether the line has no L2 copy left. The emptied slice
// then goes back to the pool.
func (r *residency) remove(line mem.Line, bank int) bool {
	found, _ := r.slot(line)
	if found < 0 {
		return true
	}
	p := &r.entries[found].val
	locs := *p
	for i, loc := range locs {
		if loc.bank == bank {
			locs[i] = locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			break
		}
	}
	if len(locs) > 0 {
		*p = locs
		return false
	}
	r.del(line)
	r.pool.free = append(r.pool.free, locs)
	return true
}
