package mem

import "math/bits"

// CoreSet is a set of cores: bit c stands for core c. Sharer masks,
// a workload's measured cores and the L1 invalidation fan-out use it.
type CoreSet uint8

// Every core index below MaxCores must have a bit: this constant
// overflows CoreSet, and the build fails, if MaxCores outgrows it.
const _ CoreSet = 1<<MaxCores - 1

// Has reports whether core c is in the set.
func (s CoreSet) Has(c int) bool { return s&(1<<uint(c)) != 0 }

// With returns the set plus core c.
func (s CoreSet) With(c int) CoreSet { return s | 1<<uint(c) }

// Without returns the set minus core c.
func (s CoreSet) Without(c int) CoreSet { return s &^ (1 << uint(c)) }

// Len returns the number of cores in the set.
func (s CoreSet) Len() int { return bits.OnesCount8(uint8(s)) }
