// Package mem defines physical addresses, cache-block geometry and the
// off-chip DRAM model shared by every cache architecture in the simulator.
package mem

import "fmt"

// MaxCores is the core count of the paper's CMP (Table 2). Per-core
// arrays are sized by it, and CoreSet must hold it.
const MaxCores = 8

// Addr is a physical byte address.
type Addr uint64

// Line is a cache-block-aligned address (the block's base address shifted
// right by the block-offset bits). All cache and coherence structures key
// on Lines, never raw byte addresses, so aliasing bugs between the private
// and shared address interpretations cannot occur at this layer.
type Line uint64

// Geometry describes the block geometry of the memory system.
type Geometry struct {
	BlockBytes int // bytes per cache block (paper: 64)
	OffsetBits uint
}

// NewGeometry returns the geometry for the given block size, which must be
// a power of two.
func NewGeometry(blockBytes int) (Geometry, error) {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: block size %d is not a positive power of two", blockBytes)
	}
	bits := uint(0)
	for 1<<bits != blockBytes {
		bits++
	}
	return Geometry{BlockBytes: blockBytes, OffsetBits: bits}, nil
}

// LineOf returns the cache line containing addr.
func (g Geometry) LineOf(a Addr) Line { return Line(uint64(a) >> g.OffsetBits) }

// AddrOf returns the base byte address of line l.
func (g Geometry) AddrOf(l Line) Addr { return Addr(uint64(l) << g.OffsetBits) }

// Log2 returns floor(log2(v)) and whether v is an exact power of two.
// It is used throughout the cache packages to derive field widths from
// bank/set counts.
func Log2(v int) (bits uint, exact bool) {
	if v <= 0 {
		return 0, false
	}
	for 1<<(bits+1) <= v {
		bits++
	}
	return bits, 1<<bits == v
}
