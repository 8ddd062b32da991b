// Package sim provides a deterministic discrete-event simulation engine.
//
// All timing in the simulator is expressed in core clock cycles. Components
// schedule callbacks at absolute cycles; the engine dispatches them in
// (cycle, sequence) order so that runs are fully deterministic: two events
// scheduled for the same cycle fire in the order they were scheduled.
package sim

import (
	"fmt"
	"time"
)

// Cycle is an absolute point in simulated time, measured in core clock
// cycles since the beginning of the run.
type Cycle uint64

// Event is a callback scheduled to run at a specific cycle.
type Event func()

type entry struct {
	at   Cycle
	seq  uint64
	call Event
}

// eventHeap is a binary min-heap ordered by (at, seq). The heap operations
// are hand-rolled rather than delegated to container/heap: the interface
// indirection there boxes every pushed and popped entry into an `any`,
// which costs two heap allocations per scheduled event on the simulator's
// hottest path. Pops never shrink the backing array, so its capacity is
// reused for the lifetime of the engine (and across runs via Reset).
type eventHeap []entry

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
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

func (h *eventHeap) push(e entry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// popMin removes and returns the minimum entry, keeping the backing
// array's capacity and zeroing the vacated slot so the closure it held
// becomes collectable.
func (h *eventHeap) popMin() entry {
	q := *h
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = entry{}
	q = q[:n]
	if n > 1 {
		q.down(0)
	}
	*h = q
	return min
}

// Probe observes engine internals when attached via SetProbe: the
// observability layer uses it to sample event-dispatch latency and queue
// depth. When no probe is attached the only per-event cost is one nil
// check in Step.
type Probe interface {
	// OnDispatch runs after each event executes: now is the event's
	// cycle, depth the queue depth after the pop, and wallNS the
	// host-side execution time of the callback in nanoseconds.
	OnDispatch(now Cycle, depth int, wallNS int64)
}

// Engine is a discrete-event scheduler. The zero value is not ready for
// use; call NewEngine.
type Engine struct {
	now     Cycle
	seq     uint64
	queue   eventHeap
	stopped bool
	// probed mirrors probe != nil: a one-byte flag on the same cache
	// line as the other hot fields, so the disabled-path check in Step
	// never touches the interface words.
	probed bool
	probe  Probe

	// Dispatched counts events executed so far; useful for run budgets
	// and regression tests.
	Dispatched uint64
}

// NewEngine returns an empty engine positioned at cycle zero.
func NewEngine() *Engine {
	return &Engine{queue: make(eventHeap, 0, 1024)}
}

// Reset returns the engine to its initial state — cycle zero, empty
// queue, zeroed counters — while keeping the queue's backing array, so a
// caller can amortize the allocation across many runs. Pending events are
// dropped and their closures released.
func (e *Engine) Reset() {
	for i := range e.queue {
		e.queue[i] = entry{}
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.probe = nil
	e.probed = false
	e.Dispatched = 0
}

// SetProbe attaches (or, with nil, detaches) an engine probe. Reset also
// detaches it, so pooled engines never leak a probe across runs.
func (e *Engine) SetProbe(p Probe) {
	e.probe = p
	e.probed = p != nil
}

// Now returns the current simulation cycle.
func (e *Engine) Now() Cycle { return e.now }

// Schedule runs ev after delay cycles. A zero delay runs ev later in the
// current cycle (after all previously scheduled work for this cycle).
func (e *Engine) Schedule(delay Cycle, ev Event) {
	e.At(e.now+delay, ev)
}

// At runs ev at the absolute cycle at. Scheduling in the past panics: it is
// always a modelling bug, and silently clamping would hide it.
func (e *Engine) At(at Cycle, ev Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now (%d)", at, e.now))
	}
	if ev == nil {
		panic("sim: scheduling nil event")
	}
	e.seq++
	e.queue.push(entry{at: at, seq: e.seq, call: ev})
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop makes the current Run call return after the in-flight event
// finishes. Further Run calls may resume the simulation.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the engine is in the stopped state: true from a
// Stop call until the next Run/RunUntil resets it. A Run that returned
// because of Stop leaves it observable here, so callers can tell "an
// event stopped me" apart from "the queue drained".
func (e *Engine) Stopped() bool { return e.stopped }

// Step executes the single earliest pending event, advancing the clock to
// its cycle. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.popMin()
	e.now = ev.at
	e.Dispatched++
	if e.probed {
		e.dispatchProbed(ev.call)
		return true
	}
	ev.call()
	return true
}

// dispatchProbed runs one event under wall-clock measurement for the
// attached probe. Kept out of Step so the probe-free dispatch path stays
// small enough to inline.
func (e *Engine) dispatchProbed(call Event) {
	start := time.Now()
	call()
	e.probe.OnDispatch(e.now, len(e.queue), time.Since(start).Nanoseconds())
}

// Run executes events until the queue drains, Stop is called, or the clock
// would pass limit (limit zero means no limit). It returns the cycle at
// which it stopped.
func (e *Engine) Run(limit Cycle) Cycle {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		if limit != 0 && e.queue[0].at > limit {
			e.now = limit
			break
		}
		e.Step()
	}
	return e.now
}

// RunUntil executes events while cond returns false, subject to the same
// termination rules as Run.
func (e *Engine) RunUntil(limit Cycle, cond func() bool) Cycle {
	e.stopped = false
	for !e.stopped && !cond() {
		if len(e.queue) == 0 {
			break
		}
		if limit != 0 && e.queue[0].at > limit {
			e.now = limit
			break
		}
		e.Step()
	}
	return e.now
}
