package sim

// Resource models a pipelined hardware unit (a bank port, a mesh link, a
// DRAM channel) with a bounded number of in-flight operations: one new
// operation may begin per "initiation interval" cycles.
//
// The simulator computes whole transactions synchronously, so claims for
// a resource do not necessarily arrive in global time order: a core can
// book the data-return link at t+300 before another core books the same
// link at t+50. A classic next-free-time scalar would charge the second
// claim a 250-cycle phantom wait. Resource therefore keeps a short
// window of booked busy intervals and places each claim into the earliest
// real gap at or after its arrival time, which is order-independent up to
// the pruning horizon.
//
// The window is the set of bookings that end at or after the horizon,
// pruneWindow cycles behind the latest arrival seen. Bookings are pruned
// lazily: a dead booking (one ending before the horizon) stays in the
// backing array until the array is full, and the array is then compacted
// in place. Dead bookings always form a prefix of the array: live ones are
// sorted by end, the horizon only advances, and a claim that ends before
// the horizon lands exactly at the dead/live boundary. A search keyed on
// max(at, horizon-1) therefore skips the dead prefix, and placement,
// Waits, Busy and Claims are identical to pruning on every claim,
// including for claims that arrive behind the horizon.
type Resource struct {
	interval  Cycle
	intervals []ival // dead prefix, then live bookings sorted by start, non-overlapping
	maxSeen   Cycle

	// Busy accumulates cycles of occupancy, for utilization statistics.
	Busy Cycle
	// Waits accumulates cycles requests spent queued.
	Waits Cycle
	// Claims counts operations serviced.
	Claims uint64
}

type ival struct{ start, end Cycle }

// pruneWindow is how far behind the latest seen arrival bookings are
// kept. Cross-core claim skew is bounded by one transaction (a few
// thousand cycles), so this window keeps booking exact in practice while
// bounding memory.
const pruneWindow = 1 << 14

// NewResource returns a resource that accepts a new operation every
// interval cycles (interval 0 is treated as 1).
func NewResource(interval Cycle) *Resource {
	if interval == 0 {
		interval = 1
	}
	return &Resource{interval: interval}
}

// Claim reserves the resource for a request arriving at cycle at and
// returns the cycle service starts.
func (r *Resource) Claim(at Cycle) Cycle {
	return r.ClaimFor(at, r.interval)
}

// ClaimFor reserves the resource for an operation occupying it for occ
// cycles (used for variable-length transfers) and returns its start.
func (r *Resource) ClaimFor(at, occ Cycle) Cycle {
	if occ == 0 {
		occ = 1
	}
	if at > r.maxSeen {
		r.maxSeen = at
	}
	// Only bookings ending after key can interfere with this claim: those
	// ending at or before the arrival are behind it, and those ending at
	// or before horizon-1 are dead.
	key := at
	if h := r.horizon(); h > 0 && h-1 > key {
		key = h - 1
	}
	lo := r.firstEndAfter(key)

	n := len(r.intervals)
	start := at
	insert := n
	for i := lo; i < n; i++ {
		iv := r.intervals[i]
		if start+occ <= iv.start {
			insert = i
			break
		}
		// iv.end > start holds for every booking past the search point,
		// and ends are non-decreasing, so the claim slides to each
		// successive end until a gap fits it.
		start = iv.end
		insert = i + 1
	}
	if n == cap(r.intervals) {
		insert -= r.compact()
		n = len(r.intervals)
	}
	r.intervals = r.intervals[:n+1]
	copy(r.intervals[insert+1:], r.intervals[insert:n])
	r.intervals[insert] = ival{start: start, end: start + occ}

	r.Waits += start - at
	r.Busy += occ
	r.Claims++
	return start
}

// horizon is the pruning horizon: bookings ending before it are dead.
func (r *Resource) horizon() Cycle {
	if r.maxSeen < pruneWindow {
		return 0
	}
	return r.maxSeen - pruneWindow
}

// firstEndAfter returns the index of the first booking ending after key,
// where key is at least horizon-1 (so every dead booking fails the test).
// Claims overwhelmingly land within a few bookings of the tail of a
// window holding hundreds or thousands, so it gallops backwards from the
// tail to bracket the answer and bisects only that bracket: a handful of
// hot cache lines instead of a search over the whole array.
func (r *Resource) firstEndAfter(key Cycle) int {
	ivs := r.intervals
	hi := len(ivs) // ivs[hi:] all end after key
	lo := hi - 1   // candidate known to end at or before key, once the loop stops
	for step := 1; lo >= 0 && ivs[lo].end > key; step <<= 1 {
		hi = lo
		lo -= step
	}
	// The answer lies in [lo+1, hi].
	lo = max(lo+1, 0)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].end <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// compact drops the dead prefix by moving the live bookings to the front
// of the backing array, which is then reused. When fewer than half the
// bookings are dead the array is instead given room to double, so each
// booking is moved a bounded number of times and the array settles at
// about twice the live window. It returns how many bookings were dropped.
func (r *Resource) compact() int {
	dead := 0
	if h := r.horizon(); h > 0 {
		dead = r.firstEndAfter(h - 1)
	}
	n := len(r.intervals)
	if dead == 0 || 2*dead < n {
		grown := make([]ival, n-dead, 2*n+8)
		copy(grown, r.intervals[dead:])
		r.intervals = grown
		return dead
	}
	r.intervals = r.intervals[:copy(r.intervals, r.intervals[dead:])]
	return dead
}

// NextFree reports the cycle at which the resource has no further
// bookings.
func (r *Resource) NextFree() Cycle {
	if len(r.intervals) == 0 {
		return 0
	}
	return r.intervals[len(r.intervals)-1].end
}

// Utilization returns Busy / now, in [0,1], or 0 before cycle 1.
func (r *Resource) Utilization(now Cycle) float64 {
	if now == 0 {
		return 0
	}
	u := float64(r.Busy) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}
