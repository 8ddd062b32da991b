package core

import (
	"fmt"

	"espnuca/internal/mem"
)

// QoS is the Quality-of-Service policy the paper sketches as future work
// (§5.2): because the accepted first-class degradation d is what decides
// how much of a bank helping blocks may occupy, making d per-priority
// turns the protected-LRU controller into a capacity-QoS knob. A bank
// belonging to a high-priority core uses a small d (its own blocks are
// protected aggressively: helping blocks from other cores are admitted
// only if they cost almost nothing), while a low-priority core's banks
// use a large d and donate capacity liberally.
type QoS struct {
	// ClassOf maps a core to its priority class.
	ClassOf [mem.MaxCores]PriorityClass
	// DFor maps a priority class to its degradation shift d.
	DFor map[PriorityClass]uint
}

// PriorityClass is a QoS service level.
type PriorityClass uint8

// The three service levels of the default policy. Standard is the zero
// value so an unconfigured core gets the paper's d=3.
const (
	// Standard class: the paper's d=3 (12.5% slack).
	Standard PriorityClass = iota
	// Latency class: d=4 (6.25% slack) — bank capacity strongly
	// protected for the owner.
	Latency
	// Bulk class: d=2 (25% slack) — the bank donates readily.
	Bulk
)

// String implements fmt.Stringer.
func (p PriorityClass) String() string {
	switch p {
	case Latency:
		return "latency"
	case Standard:
		return "standard"
	case Bulk:
		return "bulk"
	}
	return fmt.Sprintf("PriorityClass(%d)", uint8(p))
}

// DefaultQoS gives every core the Standard class.
func DefaultQoS() QoS {
	return QoS{DFor: map[PriorityClass]uint{Latency: 4, Standard: 3, Bulk: 2}}
}

// Validate reports configuration errors.
func (q QoS) Validate() error {
	for c, cls := range q.ClassOf {
		d, ok := q.DFor[cls]
		if !ok {
			return fmt.Errorf("core: core %d has class %v with no d mapping", c, cls)
		}
		if d == 0 || d > 8 {
			return fmt.Errorf("core: class %v maps to d=%d outside 1..8", cls, d)
		}
	}
	return nil
}

// DForCore returns the degradation shift to use for banks owned by core c.
func (q QoS) DForCore(c int) uint {
	if c < 0 || c >= len(q.ClassOf) {
		return 3
	}
	if d, ok := q.DFor[q.ClassOf[c]]; ok {
		return d
	}
	return 3
}

// Apply returns a SamplerConfig for a bank owned by core c: the base
// configuration with the class's d substituted.
func (q QoS) Apply(base SamplerConfig, core int) SamplerConfig {
	base.D = q.DForCore(core)
	return base
}
