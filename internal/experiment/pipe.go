package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"espnuca/internal/mem"
	"espnuca/internal/workload"
)

// A simulation is serial: one goroutine runs the event engine and every
// core. When the host has a processor to spare, runBound moves stream
// generation onto it. One producer goroutine draws each core's runs
// (workload.Stream.NextRun) ahead of the core and ships them in
// recycled fixed-size batches; the core reads them back through
// pipedSource, which hands out exactly the sequence the stream would.
// Runs are shipped rather than instructions because most instructions
// are empty: a run record carries a whole stretch of them, so the
// consumer reads a fraction of the bytes it would read per instruction.

// simulating counts the simulations in runBound, and the other workers
// of a running forEach pool. A run pipelines only when, counting itself,
// fewer are running than GOMAXPROCS, so a matrix or daemon already
// running one simulation per processor keeps generating inline. It is
// process-wide because the processors are.
var simulating atomic.Int64

// spareProcessor counts a starting simulation in and reports whether a
// processor is left over for its producer. The caller counts it out
// with simulating.Add(-1) when the simulation ends.
func spareProcessor() bool {
	return simulating.Add(1) < int64(runtime.GOMAXPROCS(0))
}

const (
	// batchRuns is the run records per batch. On the idle profile a
	// batch covers about 4,000 instructions, so a core takes a batch
	// (two channel operations) every few tens of microseconds.
	batchRuns = 512
	// batchesPerCore bounds how far the producer runs ahead of a core.
	batchesPerCore = 4
	// maxRunLen caps the instructions one NextRun call draws; a run's
	// empty count must fit its uint32.
	maxRunLen = 1 << 20
)

// run is one record of a batch: empty instructions followed by the
// non-empty instruction (fetch, data, flags) that ended the run. Zero
// flags mean the run ended at the producer's draw limit with no such
// instruction. Flattening workload.Instr lets the count share its
// padding: 24 bytes a record.
type run struct {
	fetch, data mem.Line
	flags       workload.Flags
	empty       uint32
}

// batch is a core's share of runs in transit between the producer and
// the core.
type batch struct {
	core int
	n    int
	runs [batchRuns]run
}

// pipedSource is the core-side end of one core's pipe: an InstrSource
// reading the runs the producer shipped.
type pipedSource struct {
	full chan *batch // filled batches, then nil once the target is drawn
	free chan<- *batch
	cur  *batch
	i    int // next run in cur
	used int // empty instructions of cur.runs[i] already handed out
}

// NextRun draws at most m instructions, exactly as the stream's own
// NextRun would, and returns them the same way.
func (q *pipedSource) NextRun(m int) (empty int, in workload.Instr, ok bool) {
	for {
		if q.cur == nil || q.i == q.cur.n {
			q.take()
		}
		r := &q.cur.runs[q.i]
		left := int(r.empty) - q.used
		if left >= m-empty {
			q.used += m - empty
			return m, workload.Instr{}, false
		}
		empty += left
		q.i++
		q.used = 0
		if r.flags != (workload.Flags{}) {
			return empty, workload.Instr{Fetch: r.fetch, Data: r.data, Flags: r.flags}, true
		}
	}
}

// Next draws one instruction.
func (q *pipedSource) Next() workload.Instr {
	_, in, _ := q.NextRun(1)
	return in
}

// take returns the finished batch to the producer and waits for the
// next one.
func (q *pipedSource) take() {
	if q.cur != nil {
		q.free <- q.cur
	}
	q.cur, q.i, q.used = <-q.full, 0, 0
	if q.cur == nil {
		panic("experiment: a core drew past its piped instruction target")
	}
}

// pipeline is the producer side of one piped run and the batches it
// ships. Pipelines are pooled, so a piped run in a warm process
// allocates its producer goroutine's closure and little else.
type pipeline struct {
	src [mem.MaxCores]*workload.Stream
	// Producer state: drawn counts each core's instructions drawn so
	// far, which stops at target.
	drawn, target [mem.MaxCores]uint64
	stop          atomic.Bool
	wg            sync.WaitGroup
	free          chan *batch

	// Core-side state, on its own cache lines so the producer's writes
	// do not invalidate them.
	_       [64]byte
	sources [mem.MaxCores]pipedSource
	_       [64]byte

	batches [mem.MaxCores * batchesPerCore]batch
}

// pipelines holds idle pipelines for reuse.
var pipelines struct {
	sync.Mutex
	idle []*pipeline
}

// startPipeline starts producing the streams of cores [0, len(targets))
// of bound, stream c up to targets[c] instructions.
func startPipeline(bound *workload.Bound, targets []uint64) *pipeline {
	pipelines.Lock()
	var pl *pipeline
	if n := len(pipelines.idle); n > 0 {
		pl = pipelines.idle[n-1]
		pipelines.idle = pipelines.idle[:n-1]
	}
	pipelines.Unlock()
	if pl == nil {
		// Each channel holds every batch that can be sent on it plus the
		// nil that ends it, so no send ever blocks: the producer never
		// waits on a core, and finish never waits on the producer.
		pl = &pipeline{free: make(chan *batch, mem.MaxCores*batchesPerCore+1)}
		for c := range pl.sources {
			pl.sources[c] = pipedSource{full: make(chan *batch, batchesPerCore+1), free: pl.free}
		}
		for i := range pl.batches {
			pl.batches[i].core = i % mem.MaxCores
		}
	}
	for c, t := range targets {
		pl.src[c], pl.target[c] = bound.Streams[c], t
	}
	// Batch i belongs to core i mod MaxCores, so the producer first
	// fills one batch for every core, then a second, and so on.
	for i := range pl.batches {
		if pl.batches[i].core < len(targets) {
			pl.free <- &pl.batches[i]
		}
	}
	pl.wg.Add(1)
	go pl.produce()
	return pl
}

// produce fills whichever batch a core handed back first, until stopped.
func (pl *pipeline) produce() {
	defer pl.wg.Done()
	for {
		b := <-pl.free
		if b == nil || pl.stop.Load() {
			return
		}
		c := b.core
		if pl.drawn[c] == pl.target[c] {
			continue // parked until the pipeline is reset
		}
		pl.fill(b)
		pl.sources[c].full <- b
		if pl.drawn[c] == pl.target[c] {
			pl.sources[c].full <- nil
		}
	}
}

// fill draws runs into b from its core's stream.
func (pl *pipeline) fill(b *batch) {
	c := b.core
	src, drawn, target := pl.src[c], pl.drawn[c], pl.target[c]
	n := 0
	for ; n < len(b.runs) && drawn < target; n++ {
		empty, in, ok := src.NextRun(int(min(target-drawn, maxRunLen)))
		drawn += uint64(empty)
		if ok {
			drawn++
		}
		b.runs[n] = run{fetch: in.Fetch, data: in.Data, flags: in.Flags, empty: uint32(empty)}
	}
	b.n = n
	pl.drawn[c] = drawn
}

// finish stops the producer and waits for it to exit. The pipeline is
// pooled again and must not be used after.
func (pl *pipeline) finish() {
	pl.stop.Store(true)
	pl.free <- nil // wakes a producer waiting for a batch
	pl.wg.Wait()
	pl.reset()
	pipelines.Lock()
	pipelines.idle = append(pipelines.idle, pl)
	pipelines.Unlock()
}

// reset empties every channel and forgets the run's streams.
func (pl *pipeline) reset() {
	for len(pl.free) > 0 {
		<-pl.free
	}
	for c := range pl.sources {
		q := &pl.sources[c]
		for len(q.full) > 0 {
			<-q.full
		}
		q.cur, q.i, q.used = nil, 0, 0
	}
	pl.src, pl.drawn, pl.target = [mem.MaxCores]*workload.Stream{}, [mem.MaxCores]uint64{}, [mem.MaxCores]uint64{}
	pl.stop.Store(false)
}
