package sim

import "math/bits"

// Resource models a pipelined hardware unit (a bank port, a mesh link, a
// DRAM channel) with a bounded number of in-flight operations: one new
// operation may begin per "initiation interval" cycles.
//
// The simulator computes whole transactions synchronously, so claims for
// a resource do not necessarily arrive in global time order: a core can
// book the data-return link at t+300 before another core books the same
// link at t+50. A classic next-free-time scalar would charge the second
// claim a 250-cycle phantom wait. Resource therefore keeps a window of
// booked busy cycles and places each claim into the earliest real gap at
// or after its arrival time, which is order-independent up to the
// pruning horizon.
//
// A booking is live while it ends at or after the horizon, pruneWindow
// cycles behind the latest arrival seen; a claim must miss every live
// booking and may overlap dead ones. Bookings are kept as bits in a ring
// of 64-cycle chunks: a busy bit per booked cycle and a start bit at the
// first cycle of each booking. Only live bookings are written, and a
// booking's bits are never cleared until the ring's base passes them, so
// above the horizon the busy bits are exactly the live bookings. Below
// it only the one booking holding horizon-1 can still be live, and its
// start bit (every start bit under a live booking but its own was cleared
// when it was placed) bounds how far down a claim behind the horizon has
// to look. The ring's base stays at or below every live booking's start.
type Resource struct {
	interval Cycle
	ring     []chunk // chunk c/64 of [base, base+64*len(ring)) at ring[c/64 % len]
	base     Cycle   // first cycle the ring holds, a multiple of 64
	maxSeen  Cycle   // latest arrival
	maxOcc   Cycle   // longest occupancy claimed
	maxEnd   Cycle   // latest end of any booking
	lastEnd  Cycle   // end of the most recent booking

	// Busy accumulates cycles of occupancy, for utilization statistics.
	Busy Cycle
	// Waits accumulates cycles requests spent queued.
	Waits Cycle
	// Claims counts operations serviced.
	Claims uint64
}

// chunk holds 64 consecutive cycles: bit i of busy is set when cycle
// 64k+i is booked, and bit i of starts when a booking begins there.
type chunk struct{ busy, starts uint64 }

// pruneWindow is how far behind the latest seen arrival bookings are
// kept. Cross-core claim skew is bounded by one transaction (a few
// thousand cycles), so this window keeps booking exact in practice while
// bounding memory.
const pruneWindow = 1 << 14

// initialChunks sizes the ring to twice the prune window, which holds
// the live window of every shipped resource without growing.
const initialChunks = 2 * pruneWindow / 64

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
	if r.ring == nil {
		r.ring = make([]chunk, initialChunks)
	}
	if occ > r.maxOcc {
		// A longer booking can start further below the horizon.
		r.maxOcc = occ
		if b := r.floor(); b < r.base {
			r.cover(b, r.maxEnd)
		}
	}
	if at > r.maxSeen {
		r.maxSeen = at
		if b := r.floor(); b > r.base {
			r.advance(b)
		}
	}
	h := r.horizon()

	// Fast path: a short claim at or above the horizon whose own cycles
	// are free, which is most of them.
	if at >= h && occ <= 64 && at+occ <= r.top() {
		wrap := Cycle(len(r.ring) - 1)
		off := at & 63
		m := uint64(1)<<occ - 1
		lo, hi := m<<off, m>>(64-off)
		c0, c1 := &r.ring[at>>6&wrap], &r.ring[(at>>6+1)&wrap]
		// A start bit implies its busy bit, so free cycles carry none.
		if c0.busy&lo == 0 && c1.busy&hi == 0 {
			c0.busy |= lo
			c0.starts |= 1 << off
			c1.busy |= hi
			r.account(at, at, occ)
			return at
		}
	}

	// First fit over the busy bits at or above lim, the lowest cycle a
	// live booking can hold that the claim can reach.
	lim := at
	if at < h {
		lim = r.liveFloor(h)
	}
	start := at
	for {
		end := start + occ
		b := r.nextBusy(max(start, lim), end)
		if b >= end {
			break
		}
		start = r.nextFree(b)
	}
	if start+occ >= h {
		r.book(start, start+occ)
	}
	r.account(at, start, occ)
	return start
}

// account records a booking of occ cycles placed at start for a claim
// arriving at at.
func (r *Resource) account(at, start, occ Cycle) {
	r.lastEnd = start + occ
	r.maxEnd = max(r.maxEnd, r.lastEnd)
	r.Waits += start - at
	r.Busy += occ
	r.Claims++
}

// horizon is the pruning horizon: bookings ending before it are dead.
func (r *Resource) horizon() Cycle {
	if r.maxSeen < pruneWindow {
		return 0
	}
	return r.maxSeen - pruneWindow
}

// floor is the highest base that keeps every live booking in the ring:
// one ending at or after the horizon starts at most maxOcc cycles below
// it.
func (r *Resource) floor() Cycle {
	h := r.horizon()
	if h <= r.maxOcc+1 {
		return 0
	}
	return (h - r.maxOcc - 1) &^ 63
}

// top is the first cycle past the ring. No bit is set at or above it.
func (r *Resource) top() Cycle { return r.base + Cycle(len(r.ring))<<6 }

// advance moves the base up to b, clearing the chunks it leaves so they
// can be reused at the top.
func (r *Resource) advance(b Cycle) {
	if (b-r.base)>>6 >= Cycle(len(r.ring)) {
		clear(r.ring)
	} else {
		wrap := Cycle(len(r.ring) - 1)
		for c := r.base >> 6; c < b>>6; c++ {
			r.ring[c&wrap] = chunk{}
		}
	}
	r.base = b
}

// cover makes the ring hold [b, end) for a base b at or below the
// current one, doubling it until the span fits. Lowering the base clears
// nothing: the slots it takes for chunks below the current base held
// chunks past every booking, which have no bits set.
func (r *Resource) cover(b, end Cycle) {
	need := (max(end, b) - b + 63) >> 6
	n := Cycle(len(r.ring))
	if need <= n {
		r.base = b
		return
	}
	for n < need {
		n *= 2
	}
	ring := make([]chunk, n)
	wrap := Cycle(len(r.ring) - 1)
	for c, last := r.base>>6, min((r.maxEnd+63)>>6, r.top()>>6); c < last; c++ {
		ring[c&(n-1)] = r.ring[c&wrap]
	}
	r.ring, r.base = ring, b
}

// book marks [start, end) busy with a booking beginning at start. Start
// bits under it can only belong to dead bookings and are cleared.
func (r *Resource) book(start, end Cycle) {
	if end > r.top() {
		r.cover(r.base, end)
	}
	wrap := Cycle(len(r.ring) - 1)
	for c := start; c < end; {
		n := min(end-c, 64-c&63)
		m := ^uint64(0) >> (64 - n) << (c & 63)
		ch := &r.ring[c>>6&wrap]
		ch.busy |= m
		ch.starts &^= m
		c += n
	}
	r.ring[start>>6&wrap].starts |= 1 << (start & 63)
}

// liveFloor returns the lowest cycle a live booking holds below the
// horizon h: the start of the booking holding h-1, or h when no booking
// does.
func (r *Resource) liveFloor(h Cycle) Cycle {
	c := h - 1
	if c >= r.top() {
		return h
	}
	wrap := Cycle(len(r.ring) - 1)
	k := c >> 6
	if r.ring[k&wrap].busy>>(c&63)&1 == 0 {
		return h
	}
	// The booking's start bit is the nearest at or below h-1, and it lies
	// at or above the base.
	w := r.ring[k&wrap].starts & (^uint64(0) >> (63 - c&63))
	for w == 0 {
		k--
		w = r.ring[k&wrap].starts
	}
	return k<<6 + Cycle(63-bits.LeadingZeros64(w))
}

// nextBusy returns the first busy cycle in [lo, hi), or hi if none is.
func (r *Resource) nextBusy(lo, hi Cycle) Cycle {
	wrap := Cycle(len(r.ring) - 1)
	for c, end := lo, min(hi, r.top()); c < end; c = (c | 63) + 1 {
		if w := r.ring[c>>6&wrap].busy >> (c & 63); w != 0 {
			if b := c + Cycle(bits.TrailingZeros64(w)); b < end {
				return b
			}
			break
		}
	}
	return hi
}

// nextFree returns the first free cycle at or after c.
func (r *Resource) nextFree(c Cycle) Cycle {
	wrap := Cycle(len(r.ring) - 1)
	for top := r.top(); c < top; c = (c | 63) + 1 {
		if w := ^r.ring[c>>6&wrap].busy >> (c & 63); w != 0 {
			return c + Cycle(bits.TrailingZeros64(w))
		}
	}
	return c
}

// NextFree reports the cycle at which the resource has no further
// bookings: the latest end of a live booking, or the end of the most
// recent booking when none is live.
func (r *Resource) NextFree() Cycle {
	if r.maxEnd >= r.horizon() {
		return r.maxEnd
	}
	return r.lastEnd
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
