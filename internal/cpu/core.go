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

// Config holds the core parameters. Every field must be positive
// (experiment.RunConfig.Validate refuses the rest); New uses them as
// given.
type Config struct {
	IssueWidth int // instructions per cycle (paper: 4)
	Window     int // reorder window (paper: 64)
	MSHRs      int // outstanding memory requests (paper: 16)
	// Quantum is the instructions executed per scheduler slice, a
	// simulator parameter rather than a Table 2 one.
	Quantum int
}

// DefaultConfig returns Table 2's core.
func DefaultConfig() Config {
	return Config{IssueWidth: 4, Window: 64, MSHRs: 16, Quantum: 256}
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
// synthetic workload generators implement it.
type InstrSource interface {
	Next() workload.Instr
}

// runSource is how a core draws its instructions: a run of empty ones
// (neither fetching a new code line nor accessing memory) at once.
// NextRun(m) draws at most m instructions, exactly as m Next calls
// would, stops at the first non-empty one and returns it with ok set,
// after the count of empty ones before it (workload.Stream.NextRun).
type runSource interface {
	NextRun(m int) (empty int, in workload.Instr, ok bool)
}

// oneByOne gives a source without NextRun (a wrapper, such as the
// benchmark's timedSource) the runSource method by drawing single
// instructions.
type oneByOne struct{ InstrSource }

func (s oneByOne) NextRun(m int) (int, workload.Instr, bool) {
	for n := 0; n < m; n++ {
		if in := s.Next(); in.HasFetch || in.IsMem {
			return n, in, true
		}
	}
	return m, workload.Instr{}, false
}

// Core executes one workload stream against the memory system.
type Core struct {
	ID     int
	cfg    Config
	eng    *sim.Engine
	sys    arch.System
	stream runSource

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

	// sliceEv is c.slice bound once in New: evaluating a method value
	// builds a closure, and the cores reschedule themselves on every
	// slice.
	sliceEv sim.Event
}

// New builds a core; call Start to schedule it.
func New(id int, cfg Config, eng *sim.Engine, sys arch.System, stream InstrSource, target uint64) *Core {
	rs, ok := stream.(runSource)
	if !ok {
		rs = oneByOne{stream}
	}
	c := &Core{ID: id, cfg: cfg, eng: eng, sys: sys, stream: rs, target: target}
	c.sliceEv = c.slice
	return c
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

// Start schedules the core's first slice.
func (c *Core) Start() {
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
//
// Instructions arrive in runs: a run of empty instructions retires
// arithmetically, and only the non-empty one after it touches the L1.
// Each run is drawn no longer than the instructions the per-instruction
// checks (the quantum, the target and the maxSliceSkew bound) would
// still admit, so the slice ends where it would one instruction at a
// time. Completed misses are reaped once, before each non-empty
// instruction: only those read the miss heap, and the local clock
// never moves backwards, so deferring the reaps over empty
// instructions pops the same entries.
func (c *Core) slice() {
	if c.Done {
		return
	}
	sub := c.sys.Sub()
	sliceStart := c.localTime
	iw := c.cfg.IssueWidth
	for n := 0; n < c.cfg.Quantum; {
		if c.localTime > sliceStart+maxSliceSkew {
			break
		}
		if c.retired >= c.target {
			c.Done = true
			c.drain()
			return
		}
		m := c.cfg.Quantum - n
		if left := c.target - c.retired; left < uint64(m) {
			m = int(left)
		}
		// The skew check fires before the instruction that finds the
		// clock past sliceStart+maxSliceSkew, d+1 cycles from now.
		d := int(sliceStart + maxSliceSkew - c.localTime)
		if k := (d+1)*iw - c.slot; k < m {
			m = k
		}
		empty, in, ok := c.stream.NextRun(m)
		c.retire(empty)
		n += empty
		if !ok {
			continue
		}
		c.reapCompleted()

		// Instruction fetch on code-line crossings.
		if in.HasFetch {
			if !sub.L1.Lookup(c.ID, in.Fetch, false, true) {
				c.handleMiss(in.Fetch, false, true)
			} else {
				sub.RecordL1Hit()
			}
		}

		// Data access.
		if in.IsMem {
			if sub.L1.Lookup(c.ID, in.Data, in.Write, false) {
				sub.RecordL1Hit()
			} else {
				c.handleMiss(in.Data, in.Write, false)
			}
		}

		c.retire(1)
		n++
	}
	// Yield: reschedule at the core's current local time so other cores
	// catch up in simulated time before we claim more shared resources.
	c.eng.At(c.localTime, c.sliceEv)
}

// retire retires k instructions at the issue width. If the warmup
// boundary falls among them, warmTime is the cycle its instruction
// retired in.
func (c *Core) retire(k int) {
	iw := c.cfg.IssueWidth
	if !c.warmed && c.warmTarget > 0 && c.retired+uint64(k) >= c.warmTarget {
		c.warmed = true
		j := int(c.warmTarget - c.retired - 1) // the boundary's index among the k
		c.warmTime = c.localTime + sim.Cycle((c.slot+j)/iw)
	}
	c.retired += uint64(k)
	if c.slot += k; c.slot >= iw {
		c.localTime += sim.Cycle(c.slot / iw)
		c.slot %= iw
	}
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
