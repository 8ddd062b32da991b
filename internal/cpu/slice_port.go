package cpu

// Ported (sharded) execution. When a MemPort is attached, the core runs
// the same micro-architectural model as slice() but as a resumable state
// machine: every memory request is enqueued on the port instead of being
// resolved synchronously, and whenever a back-pressure decision needs a
// completion cycle that has not been resolved yet, the core suspends —
// returns to the shard's event loop without rescheduling itself — until
// the sharded runner's barrier phase resolves all outstanding requests
// and resumes it.
//
// Equivalence with the serial path. Suspension is purely host-side: it
// mutates no simulated state (localTime, Stalls, retirement, the miss
// set), and on resume every decision is recomputed from the now-complete
// miss set with the exact predicates slice() uses. Requests that the
// serial engine would already have reaped (done <= localTime) but that
// were still unresolved here merely trigger a suspend/resume round after
// which waitOldest removes them without advancing time — the fixpoint is
// the state slice() reaches directly. Given identical completion cycles
// for identical requests, the two paths retire the same instructions at
// the same local cycles with the same stall accounting.

import (
	"espnuca/internal/mem"
	"espnuca/internal/sim"
)

// sliceEventP begins a new scheduler slice on the ported path; it is the
// event each yield schedules (the ported analogue of slice()).
func (c *Core) sliceEventP() {
	if c.Done {
		return
	}
	c.sliceStart = c.localTime
	c.sliceN = 0
	c.runP()
}

// resumeP re-enters the state machine after the runner resolved this
// core's outstanding requests; slice bookkeeping is preserved so the
// interrupted slice continues under its original skew budget.
func (c *Core) resumeP() {
	c.runP()
}

// runP advances the state machine until the core yields (end of slice),
// suspends (unresolved miss), or finishes draining.
func (c *Core) runP() {
	sub := c.sys.Sub()
	for {
		switch c.stage {
		case stageTop:
			if c.sliceN >= c.cfg.Quantum || c.localTime > c.sliceStart+maxSliceSkew {
				// Yield: reschedule at the core's local time, exactly like
				// the serial slice, so shard-local cores stay loosely
				// synchronized. After a barrier resume the shard engine may
				// already sit past this core's local time; the clamp is
				// host-side only — slice decisions key off localTime, never
				// the engine clock.
				at := c.localTime
				if now := c.eng.Now(); now > at {
					at = now
				}
				c.eng.At(at, c.sliceEvP)
				return
			}
			if c.retired >= c.target {
				c.Done = true
				c.stage = stageDrain
				continue
			}
			c.reapCompleted()
			c.in = c.stream.Next()
			c.stage = stageFetch

		case stageFetch:
			if c.in.HasFetch {
				if !sub.L1.Lookup(c.ID, c.in.Fetch, false, true) {
					c.handleMissP(c.in.Fetch, false, true)
					c.stage = stageFetchBP
					continue
				}
				c.bufHits++
			}
			c.stage = stageData

		case stageFetchBP:
			if c.backpressureP() {
				return // suspended
			}
			c.stage = stageData

		case stageData:
			if c.in.IsMem {
				if sub.L1.Lookup(c.ID, c.in.Data, c.in.Write, false) {
					c.bufHits++
					if c.pf != nil {
						c.pf.observeHit(c.in.Data)
					}
				} else {
					c.handleMissP(c.in.Data, c.in.Write, false)
					c.stage = stageDataBP
					continue
				}
			}
			c.stage = stageRetire

		case stageDataBP:
			if c.backpressureP() {
				return // suspended
			}
			if c.pf != nil {
				c.prefetchP(c.in.Data)
			}
			c.stage = stageRetire

		case stageRetire:
			c.retired++
			if !c.warmed && c.warmTarget > 0 && c.retired >= c.warmTarget {
				c.warmed = true
				c.warmTime = c.localTime
			}
			c.slot++
			if c.slot >= c.cfg.IssueWidth {
				c.slot = 0
				c.localTime++
			}
			c.sliceN++
			c.stage = stageTop

		case stageDrain:
			for len(c.misses) > 0 || len(c.pending) > 0 {
				if len(c.pending) > 0 {
					c.suspended = true
					return
				}
				c.waitOldest()
			}
			return // target reached, all misses drained; no reschedule
		}
	}
}

// handleMissP is the ported handleMiss: the access is enqueued with its
// at-issue L1 presence (the service needs it for upgrade classification,
// since the fill below runs before the access is serviced), the L1 fill
// happens immediately so subsequent shard-local lookups see the line, and
// any displaced dirty line rides along with the request.
func (c *Core) handleMissP(line mem.Line, write, ifetch bool) {
	sub := c.sys.Sub()
	present := sub.L1.Has(c.ID, line)
	t := c.port.Access(c.localTime, line, write, present, true)
	c.pending = append(c.pending, pendingMiss{ticket: t, instr: c.retired})
	wb := sub.L1.Fill(c.ID, line, write, ifetch)
	if wb.Valid {
		c.port.WriteBackAfter(t, wb.Line, wb.Dirty)
	}
}

// prefetchP is the ported prefetch: fire-and-forget requests, no MSHR
// entries, no back-pressure — mirroring the serial path.
func (c *Core) prefetchP(miss mem.Line) {
	sub := c.sys.Sub()
	for _, l := range c.pf.observeMiss(miss) {
		if sub.L1.Has(c.ID, l) {
			continue
		}
		c.pf.markIssued(l)
		t := c.port.Access(c.localTime, l, false, false, false)
		wb := sub.L1.Fill(c.ID, l, false, false)
		if wb.Valid {
			c.port.WriteBackAfter(t, wb.Line, wb.Dirty)
		}
	}
}

// backpressureP applies the serial engine's MSHR/window rules over the
// union of resolved and unresolved outstanding misses. It reports true
// when the core suspended: releasing back-pressure would require a
// completion cycle only the barrier service knows.
func (c *Core) backpressureP() bool {
	for {
		total := len(c.misses) + len(c.pending)
		if total >= c.cfg.MSHRs ||
			(total > 0 && c.retired-c.oldestInstrP() >= uint64(c.cfg.Window)) {
			if len(c.pending) > 0 {
				c.suspended = true
				return true
			}
			c.waitOldest()
			continue
		}
		return false
	}
}

// oldestInstrP returns the minimum issuing-instruction index across the
// resolved heap and the unresolved pending set.
func (c *Core) oldestInstrP() uint64 {
	min := c.misses.oldestInstr()
	for _, p := range c.pending {
		if p.instr < min {
			min = p.instr
		}
	}
	return min
}

// Resolve delivers the completion cycle of a demand request issued this
// window, moving it from the pending set into the miss heap. The runner
// calls it from the barrier phase.
func (c *Core) Resolve(ticket uint64, done sim.Cycle) {
	for i := range c.pending {
		if c.pending[i].ticket == ticket {
			c.misses.push(missEntry{done: done, instr: c.pending[i].instr})
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
	panic("cpu: Resolve for unknown ticket")
}

// Suspended reports whether the core is parked on an unresolved miss.
func (c *Core) Suspended() bool { return c.suspended }

// ScheduleResume schedules the suspended core's continuation on its shard
// engine; a no-op for cores that are not suspended. The runner calls it
// after the barrier phase has resolved every outstanding request.
func (c *Core) ScheduleResume() {
	if !c.suspended {
		return
	}
	c.suspended = false
	at := c.localTime
	if now := c.eng.Now(); now > at {
		at = now
	}
	c.eng.At(at, c.resumeEv)
}

// FlushL1Hits moves the parallel phase's buffered L1-hit count into the
// substrate decomposition; the runner calls it at every barrier, before
// any snapshot that reads the counters.
func (c *Core) FlushL1Hits() {
	if c.bufHits > 0 {
		c.sys.Sub().RecordL1Hits(c.bufHits, c.cfg.L1HitCycles)
		c.bufHits = 0
	}
}
