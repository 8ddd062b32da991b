package experiment

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
//
// A matrix runs every variant of a (workload, seed) on the same streams,
// so it does not need the producer: the measured cores' runs are drawn
// once into a recording that every cell sharing them reads (see
// recording below).

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
	// empty count must fit the 29 bits its record leaves it.
	maxRunLen = 1 << 20
	// maxRecorded caps the instructions per core a recording holds; it
	// covers the default 80k warmup and 40k measured instructions.
	// Cells over it generate their streams as a lone run does.
	maxRecorded = 1 << 18
)

// run is one run record: empty instructions followed by the non-empty
// instruction that ended the run. Zero flags mean the run ended at the
// draw limit with no such instruction. Lines are stored in 32 bits, which
// hold every line the workload catalog's regions use, and the empty
// count shares a word with the flag bits: 12 bytes a record.
type run struct {
	fetch, data uint32
	emptyFlags  uint32 // empty<<flagBits | the runFetch/runMem/runWrite bits
}

// The flag bits of a run record.
const (
	runFetch = 1 << iota
	runMem
	runWrite
	flagBits = iota
)

// packRun returns the record of a run of empty instructions ended by in;
// in is the zero Instr for a run that ended at the draw limit.
func packRun(empty int, in workload.Instr) run {
	if in.Fetch > math.MaxUint32 || in.Data > math.MaxUint32 {
		panic(fmt.Sprintf("experiment: line %#x or %#x does not fit a 32-bit run record", in.Fetch, in.Data))
	}
	var f uint32
	if in.HasFetch {
		f |= runFetch
	}
	if in.IsMem {
		f |= runMem
	}
	if in.Write {
		f |= runWrite
	}
	return run{fetch: uint32(in.Fetch), data: uint32(in.Data), emptyFlags: uint32(empty)<<flagBits | f}
}

// empty returns the record's count of empty instructions.
func (r *run) empty() int { return int(r.emptyFlags >> flagBits) }

// instr returns the instruction that ended the run, and false when the
// run ended at the draw limit instead.
func (r *run) instr() (workload.Instr, bool) {
	f := r.emptyFlags & (1<<flagBits - 1)
	if f == 0 {
		return workload.Instr{}, false
	}
	return workload.Instr{
		Fetch: mem.Line(r.fetch),
		Data:  mem.Line(r.data),
		Flags: workload.Flags{HasFetch: f&runFetch != 0, IsMem: f&runMem != 0, Write: f&runWrite != 0},
	}, true
}

// drawRun draws src's next run of at most left instructions and returns
// its record and the instructions it drew.
func drawRun(src *workload.Stream, left uint64) (run, uint64) {
	empty, in, ok := src.NextRun(int(min(left, maxRunLen)))
	n := uint64(empty)
	if ok {
		n++
	}
	return packRun(empty, in), n
}

// runReader hands out the instructions of a sequence of run records the
// way the stream that drew them would. Piped and recorded sources both
// read through one.
type runReader struct {
	runs []run
	i    int // next record
	used int // empty instructions of runs[i] already handed out
}

// read draws at most m instructions from the unread records, exactly as
// the stream's NextRun(m) would. When the records run out first it
// returns ok false and fewer than m empty instructions.
func (r *runReader) read(m int) (empty int, in workload.Instr, ok bool) {
	for r.i < len(r.runs) {
		rec := &r.runs[r.i]
		left := rec.empty() - r.used
		if left >= m-empty {
			r.used += m - empty
			return m, workload.Instr{}, false
		}
		empty += left
		r.i++
		r.used = 0
		if in, ok := rec.instr(); ok {
			return empty, in, true
		}
	}
	return empty, workload.Instr{}, false
}

// batch is a core's share of runs in transit between the producer and
// the core.
type batch struct {
	core int
	n    int
	runs [batchRuns]run
}

// pipedSource is the core-side end of one core's pipe: an InstrSource
// reading the runs the producer shipped, refilled a batch at a time.
type pipedSource struct {
	runReader
	full chan *batch // filled batches, then nil once the target is drawn
	free chan<- *batch
	cur  *batch
}

// NextRun draws at most m instructions, exactly as the stream's own
// NextRun would, and returns them the same way.
func (q *pipedSource) NextRun(m int) (empty int, in workload.Instr, ok bool) {
	for {
		e, in, ok := q.read(m - empty)
		if empty += e; ok || empty == m {
			return empty, in, ok
		}
		q.take()
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
	q.cur = <-q.full
	if q.cur == nil {
		panic("experiment: a core drew past its piped instruction target")
	}
	q.runReader = runReader{runs: q.cur.runs[:q.cur.n]}
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
		var k uint64
		b.runs[n], k = drawRun(src, target-drawn)
		drawn += k
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
		q.cur, q.runReader = nil, runReader{}
	}
	pl.src, pl.drawn, pl.target = [mem.MaxCores]*workload.Stream{}, [mem.MaxCores]uint64{}, [mem.MaxCores]uint64{}
	pl.stop.Store(false)
}

// streamKey names the measured cores' streams of a run: they are a pure
// function of the workload, the geometry it is bound to, the seed and
// the instructions each core draws.
type streamKey struct {
	workload          string
	l2Lines, l1iLines int
	cores             int
	seed, target      uint64
}

// streamKeyOf returns rc's stream key.
func streamKeyOf(rc RunConfig) streamKey {
	l2Lines := rc.WorkloadL2Lines
	if l2Lines == 0 {
		l2Lines = rc.System.L2Lines()
	}
	return streamKey{
		workload: rc.Workload,
		l2Lines:  l2Lines, l1iLines: rc.System.L1ILines(),
		cores: rc.System.Cores,
		seed:  rc.Seed, target: rc.Warmup + rc.Instructions,
	}
}

// recording holds the measured cores' runs of one stream key. The first
// run to need it binds those streams and draws them, under once;
// after that it is immutable and any number of runs read it at once,
// each through its own recordedSource. Idle cores are not recorded:
// their targets are unbounded, so they draw from their bound streams.
type recording struct {
	once  sync.Once
	cells int // leased cells not yet finished; guarded by recordings
	cores [mem.MaxCores][]run
}

// record draws the runs of every measured core c, up to targets[c].
// Each core's runs are drawn into one reused buffer and copied out at
// their exact length, so the appends' regrowth is paid once a recording,
// not once a core, and no core keeps spare capacity.
func (r *recording) record(bound *workload.Bound, targets []uint64) {
	var buf []run
	for c, target := range targets {
		if !bound.Active.Has(c) {
			continue
		}
		buf = buf[:0]
		for drawn := uint64(0); drawn < target; {
			rec, n := drawRun(bound.Streams[c], target-drawn)
			buf = append(buf, rec)
			drawn += n
		}
		r.cores[c] = slices.Clone(buf)
	}
}

// recordedSource is one core's reader of a recording.
type recordedSource struct{ runReader }

// NextRun draws at most m instructions, exactly as the recorded
// stream's own NextRun would, and returns them the same way.
func (q *recordedSource) NextRun(m int) (int, workload.Instr, bool) {
	empty, in, ok := q.read(m)
	if !ok && empty < m {
		panic("experiment: a core drew past its recorded instruction target")
	}
	return empty, in, ok
}

// Next draws one instruction.
func (q *recordedSource) Next() workload.Instr {
	_, in, _ := q.NextRun(1)
	return in
}

// recordings is the process-wide registry of leased stream keys. A
// Matrix.Run leases the keys two or more of its cells share; a run whose
// key is leased reads its measured cores from the key's recording, which
// it finds here however it was dispatched (through a RunFunc too), so a
// cell served from a cache never draws one. An entry leaves the registry
// when the last leased cell of its key finishes, and its recording is
// freed once the last run reading it ends.
var recordings struct {
	sync.Mutex
	leased map[streamKey]*recording
}

// leasedRecording returns k's recording, or nil when no matrix leases k.
func leasedRecording(k streamKey) *recording {
	recordings.Lock()
	defer recordings.Unlock()
	return recordings.leased[k]
}

// A lease is one Matrix.Run's hold on the registry: left counts the
// matrix's cells of each key that have not finished.
type lease struct {
	left map[streamKey]int // guarded by recordings
}

// leaseRecordings leases each key of cells to that many cells.
func leaseRecordings(cells map[streamKey]int) *lease {
	recordings.Lock()
	defer recordings.Unlock()
	for k, n := range cells {
		if recordings.leased == nil {
			recordings.leased = make(map[streamKey]*recording)
		}
		r := recordings.leased[k]
		if r == nil {
			r = &recording{}
			recordings.leased[k] = r
		}
		r.cells += n
	}
	return &lease{left: cells}
}

// done counts one cell of k as finished, whether it ran or not.
func (l *lease) done(k streamKey) {
	recordings.Lock()
	defer recordings.Unlock()
	if _, ok := l.left[k]; ok {
		l.drop(k, 1)
	}
}

// release ends the lease, dropping the cells that never finished.
func (l *lease) release() {
	recordings.Lock()
	defer recordings.Unlock()
	for k, n := range l.left {
		l.drop(k, n)
	}
}

// drop counts n of the lease's cells of k out. The caller holds
// recordings.
func (l *lease) drop(k streamKey, n int) {
	if l.left[k] -= n; l.left[k] == 0 {
		delete(l.left, k)
	}
	r := recordings.leased[k]
	if r.cells -= n; r.cells == 0 {
		delete(recordings.leased, k)
	}
}
