package arch

import "espnuca/internal/mem"

// lineMap is an open-addressed, linearly probed hash table keyed by cache
// line, used for the substrate's per-line record (L2 copies, private bit
// and coherence token state) and D-NUCA's last-requester table. It
// replaces the runtime map on the simulator's per-access path: line keys
// are fixed-stride addresses that hash well with a cheap mixer, entries
// store values inline, and deletion backward-shifts the probe chain so
// the table never accumulates tombstones.
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
func newLineMap[V any](n int) lineMap[V] {
	size := lineMapSize(n)
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

// reset returns the table to the state newLineMap(n) builds: it removes
// every entry, and rebuilds a table that grew.
func (m *lineMap[V]) reset(n int) {
	if len(m.entries) != lineMapSize(n) {
		*m = newLineMap[V](n)
		return
	}
	clear(m.entries)
	m.count = 0
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

// find returns a pointer to l's value, or nil if absent. The pointer is
// valid only until the next set/ptr/del call.
func (m *lineMap[V]) find(l mem.Line) *V {
	if found, _ := m.slot(l); found >= 0 {
		return &m.entries[found].val
	}
	return nil
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
