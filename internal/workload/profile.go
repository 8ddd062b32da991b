// Package workload synthesizes the memory behaviour of the paper's 22
// workloads (Table 1). Real traces of Apache/SPECjbb/OLTP/Zeus, SPEC2000
// and NAS runs on Solaris are not reproducible here, so each application
// is modelled by a profile capturing the properties the paper's analysis
// attributes to it: footprint sizes, locality (Zipf exponents and
// streaming fractions), sharing degree, write mix, OS activity, and which
// cores run it. The profiles are expressed relative to the simulated L2
// capacity so the same workloads remain meaningful on scaled-down
// configurations.
package workload

import "espnuca/internal/mem"

// Kind labels the four workload families of Table 1.
type Kind int

const (
	// Transactional is the Wisconsin Commercial Workload family.
	Transactional Kind = iota
	// HalfRate is SPEC2000 running on four of eight cores.
	HalfRate
	// Hybrid is two SPEC2000 programs on four cores each.
	Hybrid
	// NAS is the NAS Parallel Benchmarks (OpenMP) family.
	NAS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Transactional:
		return "transactional"
	case HalfRate:
		return "halfrate"
	case Hybrid:
		return "hybrid"
	case NAS:
		return "nas"
	}
	return "unknown"
}

// AppProfile describes one application's per-core memory behaviour.
// Footprints are fractions of the simulated L2 capacity (in lines), so a
// value of 4.0 means a working set four times the L2.
type AppProfile struct {
	Name string

	// MemFraction is the fraction of instructions that are data accesses.
	MemFraction float64
	// WriteFraction is the store fraction among private data accesses.
	WriteFraction float64

	// PrivateFootprint is the per-core private data footprint (xL2).
	PrivateFootprint float64
	// PrivateZipf is the locality exponent of non-streaming private
	// accesses (higher = hotter).
	PrivateZipf float64
	// StreamFraction is the fraction of private accesses that walk the
	// footprint sequentially (scans defeat caching for large footprints).
	StreamFraction float64

	// SharedFraction is the fraction of data accesses that touch the
	// application's shared region (0 for single-threaded programs).
	SharedFraction float64
	// SharedFootprint is the shared-region size (xL2).
	SharedFootprint float64
	// SharedZipf is the shared-region locality exponent.
	SharedZipf float64
	// SharedWriteFraction is the store fraction among shared accesses
	// (drives invalidation/migratory traffic).
	SharedWriteFraction float64

	// CodeFootprint is the instruction footprint (xL1I capacity);
	// transactional workloads have large OS/server code footprints.
	CodeFootprint float64
	// BranchFraction is the per-instruction probability of a taken
	// branch to a non-sequential code line.
	BranchFraction float64

	// OSFraction is the fraction of data accesses touching the shared OS
	// region (buffer caches, kernel structures), which all cores share.
	OSFraction float64

	// Recency is the fraction of data accesses that re-touch a recently
	// used line (temporal locality / short stack distances, the part of
	// the reference stream the L1 absorbs). Cache-friendly codes sit
	// around 0.85; low-utility streaming codes (art, mcf, NAS kernels)
	// much lower.
	Recency float64
	// CodeRecency is the corresponding probability that a taken branch
	// targets recently executed code (loops); near 1 for numeric kernels,
	// lower for sprawling server/OS code.
	CodeRecency float64
}

// Assignment places one application on a set of cores. Multithreaded
// applications share one shared region and one code region across their
// cores; multiprogrammed instances get disjoint regions per core.
type Assignment struct {
	App   AppProfile
	Cores []int
	// Multithreaded marks the cores as threads of one process (shared
	// heap and code); otherwise each core runs an independent instance.
	Multithreaded bool

	// phase, when non-nil, alternates the cores' streams with a second
	// profile (see PhasedSpec).
	phase *phaseSpec
}

// Spec is a complete workload: a name, its family, and the assignment of
// applications to the 8 cores. Cores not covered by any assignment run
// the light "system services / idle" profile.
type Spec struct {
	Name        string
	Kind        Kind
	Assignments []Assignment
}

// ActiveCores returns the bitmask of cores that run measured application
// work (idle/service cores excluded).
func (s Spec) ActiveCores() mem.CoreSet {
	var m mem.CoreSet
	for _, a := range s.Assignments {
		for _, c := range a.Cores {
			m = m.With(c)
		}
	}
	return m
}

// idleProfile models a core running only OS housekeeping.
func idleProfile() AppProfile {
	return AppProfile{
		Name:             "idle",
		MemFraction:      0.03,
		WriteFraction:    0.2,
		PrivateFootprint: 0.002,
		PrivateZipf:      1.0,
		CodeFootprint:    0.5,
		BranchFraction:   0.05,
		OSFraction:       0.05,
		Recency:          0.95,
		CodeRecency:      0.98,
	}
}
