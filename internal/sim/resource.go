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
//
// A claim of at most 64 cycles at or above the horizon reads the 64
// cycles from its arrival as one word of busy bits. When its own cycles
// are free it takes them; otherwise it ANDs the free bits with
// themselves shifted until a set bit marks a free run as long as the
// claim, and takes the first with one TrailingZeros64: the first fit, as
// long as a run starts and ends in that window. Only a claim that finds
// none, or that arrives behind the horizon, searches the ring chunk by
// chunk. The horizon, the ring's top and the arrival that moves its base
// are kept as fields, updated only when the latest arrival, the base or
// the longest occupancy moves.
type Resource struct {
	interval Cycle
	ring     []chunk // chunk c/64 of [base, top) at ring[c/64 % len]
	base     Cycle   // first cycle the ring holds, a multiple of 64
	top      Cycle   // base + 64*len(ring), the first cycle past the ring; 0 before the first claim
	horizon  Cycle   // bookings ending before it are dead: maxSeen - pruneWindow, or 0
	rise     Cycle   // the first arrival that lifts floor above the base
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
// 64k+i is booked, and bit i of starts when a booking begins there. The
// two words sit side by side, so a claim touches one cache line.
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

// Reset returns the resource to its state as NewResource built it,
// keeping its ring: the ring is cleared, and one that doubled goes back
// to its initial size.
func (r *Resource) Reset() {
	ring := r.ring
	if len(ring) == initialChunks {
		clear(ring)
	} else {
		ring = nil
	}
	*r = Resource{interval: r.interval, ring: ring}
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
	if r.top == 0 {
		r.open()
	}
	if occ > r.maxOcc {
		r.lengthen(occ)
	}
	if at > r.maxSeen {
		// The horizon follows the latest arrival, and the base the
		// horizon, a chunk at a time.
		r.maxSeen = at
		r.horizon = max(at, pruneWindow) - pruneWindow
		if at >= r.rise {
			r.advance(r.floor())
		}
	}

	// Fast path: a claim of at most 64 cycles at or above the horizon
	// whose own cycles are free, which is most of them, or that finds a
	// free run in the 64 cycles from at.
	if at >= r.horizon && occ <= 64 && at+64 <= r.top {
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
		if start, ok := r.window(at, occ); ok {
			return start
		}
	}

	// First fit over the busy bits at or above lim, the lowest cycle a
	// live booking can hold that the claim can reach.
	lim := at
	if at < r.horizon {
		lim = r.liveFloor(r.horizon)
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
	if start+occ >= r.horizon {
		r.book(start, start+occ)
	}
	r.account(at, start, occ)
	return start
}

// window books a claim of occ <= 64 cycles arriving at at, at or above
// the horizon and at least 64 cycles below the ring's top, at the first
// run of occ free cycles among the 64 from at, and reports whether one
// fits there. The free bits ANDed with themselves shifted mark, at bit
// i, a run of occ free cycles from at+i; bits past the window shift in
// as busy, so a marked run ends inside it.
func (r *Resource) window(at, occ Cycle) (Cycle, bool) {
	wrap := Cycle(len(r.ring) - 1)
	k, off := at>>6&wrap, at&63
	fits := ^(r.ring[k].busy>>off | r.ring[(k+1)&wrap].busy<<(64-off))
	for n := Cycle(1); n < occ; {
		sh := min(n, occ-n)
		fits &= fits >> sh
		n += sh
	}
	if fits == 0 {
		return 0, false
	}
	start := at + Cycle(bits.TrailingZeros64(fits))
	// The run is free, so it holds no start bit to clear.
	k, off = start>>6&wrap, start&63
	m := uint64(1)<<occ - 1
	r.ring[k].busy |= m << off
	r.ring[(k+1)&wrap].busy |= m >> (64 - off)
	r.ring[k].starts |= 1 << off
	r.account(at, start, occ)
	return start, true
}

// open readies the ring for the first claim since NewResource or Reset.
func (r *Resource) open() {
	if r.ring == nil {
		r.ring = make([]chunk, initialChunks)
	}
	r.moved()
}

// moved updates what follows from the base, the ring's length and the
// longest occupancy: the ring's top, and the arrival from which floor
// is above the base.
func (r *Resource) moved() {
	r.top = r.base + Cycle(len(r.ring))<<6
	r.rise = r.base + 64 + r.maxOcc + 1 + pruneWindow
}

// lengthen records occ as the longest occupancy claimed. A longer
// booking can start further below the horizon, so the ring reaches down
// to the new floor.
func (r *Resource) lengthen(occ Cycle) {
	r.maxOcc = occ
	if b := r.floor(); b < r.base {
		r.cover(b, r.maxEnd)
	}
	r.moved()
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

// floor is the highest base that keeps every live booking in the ring:
// one ending at or after the horizon starts at most maxOcc cycles below
// it.
func (r *Resource) floor() Cycle {
	if r.horizon <= r.maxOcc+1 {
		return 0
	}
	return (r.horizon - r.maxOcc - 1) &^ 63
}

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
	r.moved()
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
		r.moved()
		return
	}
	for n < need {
		n *= 2
	}
	ring := make([]chunk, n)
	wrap := Cycle(len(r.ring) - 1)
	for c, last := r.base>>6, min((r.maxEnd+63)>>6, r.top>>6); c < last; c++ {
		ring[c&(n-1)] = r.ring[c&wrap]
	}
	r.ring, r.base = ring, b
	r.moved()
}

// book marks [start, end) busy with a booking beginning at start. Start
// bits under it can only belong to dead bookings and are cleared.
func (r *Resource) book(start, end Cycle) {
	if end > r.top {
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
	if c >= r.top {
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
	for c, end := lo, min(hi, r.top); c < end; c = (c | 63) + 1 {
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
	for top := r.top; c < top; c = (c | 63) + 1 {
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
	if r.maxEnd >= r.horizon {
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
