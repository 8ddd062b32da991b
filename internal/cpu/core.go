// Package cpu models the processor cores of Table 2: out-of-order with a
// 64-entry window, 4-wide issue, and up to 16 outstanding memory
// requests.
//
// The model is the standard lightweight OoO approximation used by
// trace-driven memory-system studies: instructions retire at the issue
// width; an L1 miss does not stall the core immediately — execution runs
// ahead until either the MSHRs fill (16 outstanding misses) or the
// reorder window fills (64 instructions past the oldest incomplete miss),
// at which point the core waits for the oldest miss. This captures
// memory-level parallelism and latency hiding, the two first-order
// effects the L2 architecture differentiates on.
package cpu

import (
	"espnuca/internal/arch"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

// Config holds the core parameters.
type Config struct {
	IssueWidth  int // instructions per cycle (paper: 4)
	Window      int // reorder window (paper: 64)
	MSHRs       int // outstanding memory requests (paper: 16)
	Quantum     int // instructions executed per scheduler slice
	L1HitCycles sim.Cycle
	// PrefetchDegree, when positive, enables a per-core stride
	// prefetcher issuing that many lines ahead on confirmed strides
	// (extension; the paper's system has none).
	PrefetchDegree int
}

// DefaultConfig returns Table 2's core.
func DefaultConfig() Config {
	return Config{IssueWidth: 4, Window: 64, MSHRs: 16, Quantum: 256, L1HitCycles: 3}
}

// missHeap orders outstanding misses by completion cycle. Like the event
// queue in internal/sim, it is a hand-rolled binary min-heap rather than a
// container/heap implementation: the interface-based API boxes every
// missEntry into an `any` on Push and Pop, one heap allocation per L1 miss
// on the simulator's hot path.
type missHeap []missEntry

type missEntry struct {
	done  sim.Cycle
	instr uint64 // instruction index that issued it
}

func (h missHeap) less(i, j int) bool { return h[i].done < h[j].done }

func (h missHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h missHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (h *missHeap) push(e missEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// popMin removes and returns the earliest-completing miss, keeping the
// backing array's capacity for reuse.
func (h *missHeap) popMin() missEntry {
	q := *h
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	if n > 1 {
		q.down(0)
	}
	*h = q
	return min
}

func (h missHeap) oldestInstr() uint64 { // min instruction index among entries
	min := ^uint64(0)
	for _, e := range h {
		if e.instr < min {
			min = e.instr
		}
	}
	return min
}

// InstrSource supplies the instruction stream a core executes. The
// synthetic workload generators implement it, as do trace replayers.
type InstrSource interface {
	Next() workload.Instr
}

// MemPort decouples a core from the synchronous memory system for
// sharded execution: instead of calling arch.System.Access inline (which
// touches mesh links, L2 banks, the directory and DRAM — state shared
// across shards), a ported core enqueues its request and learns the
// completion cycle later, when the sharded runner's barrier phase has
// serviced the merged request stream in deterministic order and called
// Resolve. Access returns a ticket scoped to the current window; demand
// requests must be resolved before the core's next resume, prefetches are
// fire-and-forget. WriteBackAfter attaches a displaced dirty line to the
// ticket's request so the service issues the write-back immediately after
// the access, exactly where the serial engine would.
type MemPort interface {
	Access(at sim.Cycle, line mem.Line, write, present, demand bool) uint64
	WriteBackAfter(ticket uint64, line mem.Line, dirty bool)
}

// pendingMiss is an issued-but-unresolved demand request: the completion
// cycle is unknown until the barrier service resolves the ticket.
type pendingMiss struct {
	ticket uint64
	instr  uint64 // instruction index that issued it
}

// Micro-architectural resume points of the ported slice state machine.
const (
	stageTop     = iota // begin the next instruction
	stageFetch          // instruction-fetch path
	stageFetchBP        // back-pressure after a fetch miss
	stageData           // data-access path
	stageDataBP         // back-pressure after a data miss
	stageRetire         // retirement bookkeeping
	stageDrain          // waiting out outstanding misses at the target
)

// Core executes one workload stream against the memory system.
type Core struct {
	ID     int
	cfg    Config
	eng    *sim.Engine
	sys    arch.System
	stream InstrSource

	localTime sim.Cycle
	retired   uint64
	target    uint64
	slot      int // issue slots consumed this cycle
	misses    missHeap

	// warmTarget is the retirement count at which measurement begins;
	// warmTime records the core's local clock at that point.
	warmTarget uint64
	warmTime   sim.Cycle
	warmed     bool

	// Done reports whether the core reached its instruction target.
	Done bool

	// Stalls counts cycles lost waiting on the window/MSHR limits.
	Stalls sim.Cycle

	// pf is the optional stride prefetcher.
	pf *stridePrefetcher

	// --- Ported (sharded) execution state; nil/zero on the serial path ---

	// port, when non-nil, routes memory requests through the sharded
	// runner instead of the synchronous system; the core then executes
	// via the resumable state machine in slice_port.go.
	port MemPort
	// pending holds issued demand requests whose completion cycle the
	// barrier service has not yet resolved.
	pending []pendingMiss
	// suspended marks a core parked mid-instruction on an unresolved
	// miss; the runner resumes it after the barrier resolves everything.
	suspended bool
	// stage/in/sliceStart/sliceN persist the state machine's position
	// across suspensions (a resume re-enters mid-slice, mid-instruction).
	stage      int
	in         workload.Instr
	sliceStart sim.Cycle
	sliceN     int
	// bufHits counts L1 hits recorded during the parallel phase, flushed
	// to the substrate decomposition at each barrier (FlushL1Hits).
	bufHits uint64

	// sliceEv, sliceEvP and resumeEv are c.slice, c.sliceEventP and
	// c.resumeP bound once in New: evaluating a method value builds a
	// closure, and the cores reschedule themselves on every slice.
	sliceEv, sliceEvP, resumeEv sim.Event
}

// New builds a core; call Start to schedule it.
func New(id int, cfg Config, eng *sim.Engine, sys arch.System, stream InstrSource, target uint64) *Core {
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 16
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 256
	}
	c := &Core{ID: id, cfg: cfg, eng: eng, sys: sys, stream: stream, target: target}
	c.sliceEv, c.sliceEvP, c.resumeEv = c.slice, c.sliceEventP, c.resumeP
	if cfg.PrefetchDegree > 0 {
		c.pf = newStridePrefetcher(cfg.PrefetchDegree)
	}
	return c
}

// Prefetcher stats: prefetches issued and those that saw demand hits;
// zeros when prefetching is disabled.
func (c *Core) PrefetchStats() (issued, useful uint64) {
	if c.pf == nil {
		return 0, 0
	}
	return c.pf.Issued, c.pf.Useful
}

// Retired returns the number of instructions completed.
func (c *Core) Retired() uint64 { return c.retired }

// Time returns the core's local cycle count.
func (c *Core) Time() sim.Cycle { return c.localTime }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.localTime == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.localTime)
}

// SetWarmup makes the core record the local cycle at which it retires its
// n-th instruction, delimiting the measured window. Call before Start.
func (c *Core) SetWarmup(n uint64) { c.warmTarget = n }

// Warmed reports whether the warmup boundary was crossed.
func (c *Core) Warmed() bool { return c.warmed }

// MeasuredIPC returns instructions per cycle within the core's own
// measured window (after its warmup boundary).
func (c *Core) MeasuredIPC() float64 {
	if !c.warmed || c.localTime <= c.warmTime {
		return c.IPC()
	}
	return float64(c.retired-c.warmTarget) / float64(c.localTime-c.warmTime)
}

// MeasuredWindow returns the measured cycles and instructions.
func (c *Core) MeasuredWindow() (sim.Cycle, uint64) {
	if !c.warmed {
		return c.localTime, c.retired
	}
	return c.localTime - c.warmTime, c.retired - c.warmTarget
}

// SetPort switches the core to ported (sharded) execution. Call before
// Start.
func (c *Core) SetPort(p MemPort) { c.port = p }

// Start schedules the core's first slice.
func (c *Core) Start() {
	if c.port != nil {
		c.eng.Schedule(0, c.sliceEvP)
		return
	}
	c.eng.Schedule(0, c.sliceEv)
}

// maxSliceSkew bounds how far a core's local clock may advance within one
// scheduler slice. Shared resources (links, bank ports, DRAM channels) use
// next-free-time queueing, which is only accurate when claims arrive in
// roughly global time order; yielding whenever the local clock jumps keeps
// cross-core skew below one short transaction.
const maxSliceSkew = 64

// slice executes up to Quantum instructions, then yields to the event
// queue so cores stay loosely synchronized in simulated time.
func (c *Core) slice() {
	if c.Done {
		return
	}
	sub := c.sys.Sub()
	sliceStart := c.localTime
	for n := 0; n < c.cfg.Quantum; n++ {
		if c.localTime > sliceStart+maxSliceSkew {
			break
		}
		if c.retired >= c.target {
			c.Done = true
			c.drain()
			return
		}
		c.reapCompleted()

		in := c.stream.Next()

		// Instruction fetch on code-line crossings.
		if in.HasFetch {
			if !sub.L1.Lookup(c.ID, in.Fetch, false, true) {
				c.handleMiss(in.Fetch, false, true)
			} else {
				sub.RecordL1Hit(c.cfg.L1HitCycles)
			}
		}

		// Data access.
		if in.IsMem {
			if sub.L1.Lookup(c.ID, in.Data, in.Write, false) {
				sub.RecordL1Hit(c.cfg.L1HitCycles)
				if c.pf != nil {
					c.pf.observeHit(in.Data)
				}
			} else {
				c.handleMiss(in.Data, in.Write, false)
				if c.pf != nil {
					c.prefetch(in.Data)
				}
			}
		}

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
	}
	// Yield: reschedule at the core's current local time so other cores
	// catch up in simulated time before we claim more shared resources.
	c.eng.At(c.localTime, c.sliceEv)
}

// handleMiss issues the access to the L2 system and applies the window /
// MSHR back-pressure rules.
func (c *Core) handleMiss(line mem.Line, write, ifetch bool) {
	sub := c.sys.Sub()
	res := c.sys.Access(c.localTime, c.ID, line, write)
	c.misses.push(missEntry{done: res.Done, instr: c.retired})
	wb := sub.L1.Fill(c.ID, line, write, ifetch)
	if wb.Valid {
		c.sys.WriteBack(res.Done, c.ID, wb.Line, wb.Dirty)
	}

	// Back-pressure: MSHRs full, or the window has run ahead of the
	// oldest outstanding miss.
	for len(c.misses) >= c.cfg.MSHRs ||
		(len(c.misses) > 0 && c.retired-c.misses.oldestInstr() >= uint64(c.cfg.Window)) {
		c.waitOldest()
	}
}

// prefetch trains the stride predictor and issues non-blocking fills.
func (c *Core) prefetch(miss mem.Line) {
	sub := c.sys.Sub()
	for _, l := range c.pf.observeMiss(miss) {
		if sub.L1.Has(c.ID, l) {
			continue
		}
		c.pf.markIssued(l)
		res := c.sys.Access(c.localTime, c.ID, l, false)
		wb := sub.L1.Fill(c.ID, l, false, false)
		if wb.Valid {
			c.sys.WriteBack(res.Done, c.ID, wb.Line, wb.Dirty)
		}
	}
}

// reapCompleted retires misses whose data has arrived.
func (c *Core) reapCompleted() {
	for len(c.misses) > 0 && c.misses[0].done <= c.localTime {
		c.misses.popMin()
	}
}

// waitOldest advances local time to the earliest completing miss.
func (c *Core) waitOldest() {
	if len(c.misses) == 0 {
		return
	}
	e := c.misses.popMin()
	if e.done > c.localTime {
		c.Stalls += e.done - c.localTime
		c.localTime = e.done
		c.slot = 0
	}
	c.reapCompleted()
}

// drain waits for all outstanding misses at the end of the run.
func (c *Core) drain() {
	for len(c.misses) > 0 {
		c.waitOldest()
	}
}
