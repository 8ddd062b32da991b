// Package cache implements the set-associative bank structures shared by
// every L2 organization in the simulator: tag arrays with the SP/ESP-NUCA
// class bits, true-LRU bookkeeping, pluggable replacement policies, and
// the shadow-tag monitor used as the costly reference partitioner in the
// paper's Figure 4.
package cache

import (
	"fmt"

	"espnuca/internal/mem"
)

// Class is the SP/ESP-NUCA block class. Private and Shared blocks are
// "first-class"; Replica and Victim blocks are "helping blocks" (paper
// §3.1) whose presence in a set is limited by the protected-LRU policy.
type Class uint8

const (
	// Private marks a block accessed by exactly one core so far; it lives
	// in that core's private bank partition (private bit set).
	Private Class = iota
	// Shared marks a block accessed by two or more cores; it lives in its
	// address-interleaved home bank (private bit clear).
	Shared
	// Replica is a helping copy of a Shared block placed in the
	// requester's private partition to cut shared-access latency.
	Replica
	// Victim is a helping block holding remote private data evicted into
	// the shared partition to absorb unbalanced private footprints.
	Victim
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Private:
		return "private"
	case Shared:
		return "shared"
	case Replica:
		return "replica"
	case Victim:
		return "victim"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// FirstClass reports whether the class is private or shared (not a helping
// block).
func (c Class) FirstClass() bool { return c == Private || c == Shared }

// Helping reports whether the class is a replica or victim.
func (c Class) Helping() bool { return c == Replica || c == Victim }

// ClassMask is a bit set of Classes, indexed by class value; tag queries
// and LRU filters compare against it inline instead of calling a
// predicate.
type ClassMask uint8

// Mask returns the singleton mask for the class.
func (c Class) Mask() ClassMask { return 1 << c }

// Class-mask constants for the common matching rules.
const (
	MaskPrivate = ClassMask(1 << Private)
	MaskShared  = ClassMask(1 << Shared)
	MaskReplica = ClassMask(1 << Replica)
	MaskVictim  = ClassMask(1 << Victim)
	// AnyClass matches every class.
	AnyClass = MaskPrivate | MaskShared | MaskReplica | MaskVictim
	// FirstClassMask matches private and shared (non-helping) blocks.
	FirstClassMask = MaskPrivate | MaskShared
	// HelpingMask matches replica and victim (helping) blocks.
	HelpingMask = MaskReplica | MaskVictim
)

// Block is one tag-array entry. Its bank keeps the LRU stamp and a
// packed tag word beside it (see Bank), so a way costs 32 bytes in all.
//
// The line comes first and the narrower fields after it, so a block
// packs into 16 bytes.
type Block struct {
	Line mem.Line
	// Ref is a handle the bank's user keeps with the block: the
	// substrate keeps the slab slot of the line's record there. The bank
	// copies it with the block and never reads it.
	Ref uint32
	// Owner is the core the block belongs to: the single accessor for
	// Private blocks and Victims, the replica-holding core for Replicas.
	// It is meaningless (-1) for Shared blocks. Cores fit it: the machine
	// has at most mem.MaxCores.
	Owner int8

	Valid bool
	Class Class
	Dirty bool
}
