package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"espnuca/internal/obs"
)

// Scheduler errors.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (the HTTP API maps it to 429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining rejects submissions after Drain started.
	ErrDraining = errors.New("service: scheduler draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrDeadline marks a job that exceeded its deadline.
	ErrDeadline = errors.New("service: deadline exceeded")
	// ErrNoTrace reports a job that carries no span trace (the daemon was
	// started with tracing disabled, or the job was submitted without one).
	ErrNoTrace = errors.New("service: job has no trace")
)

// errClientCancel is the cancellation cause Cancel plants, so the
// worker can tell a client cancel from a drain or deadline.
var errClientCancel = errors.New("canceled by client")

// Runner executes one job. Implementations must honor ctx (return
// promptly once it is done) and may call progress from any goroutine;
// the scheduler serializes what observers see. The returned payload is
// JSON-marshaled into the job view.
type Runner interface {
	Run(ctx context.Context, spec JobSpec, progress func(done, total int)) (any, error)
}

// RunnerFunc adapts a function to Runner.
type RunnerFunc func(ctx context.Context, spec JobSpec, progress func(done, total int)) (any, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, spec JobSpec, progress func(done, total int)) (any, error) {
	return f(ctx, spec, progress)
}

// Config tunes a Scheduler.
type Config struct {
	// Workers is the number of jobs executed concurrently (0: NumCPU).
	// Matrix jobs additionally fan their cells over their own bounded
	// pool, so the effective simulation parallelism is Workers x
	// per-job parallelism; servers running big matrices usually want
	// few workers.
	Workers int
	// QueueLimit bounds the number of queued (not yet running) jobs
	// (0: DefaultQueueLimit).
	QueueLimit int
	// RetainJobs bounds how many terminal jobs — and their result
	// payloads, which for matrix jobs can be sizable — stay queryable
	// before the oldest are evicted from the job table, so a
	// long-running daemon does not grow without bound (0:
	// DefaultRetainJobs, negative: retain everything).
	RetainJobs int
	// Runner executes the jobs. Required.
	Runner Runner
	// Obs receives service telemetry (jobs submitted/completed/failed/
	// canceled/rejected counters, queue depth and running gauges, and the
	// per-stage latency histograms). Nil creates a private registry,
	// readable via Scheduler.Obs.
	Obs *obs.Registry
	// Logger receives structured job-lifecycle logs (submissions, state
	// transitions, drain progress). Nil is silent — tests and library
	// embedders pay nothing.
	Logger *slog.Logger
}

// StageLatencyBounds is the shared millisecond bucket layout of the
// per-stage and per-endpoint latency histograms: fine-grained at the
// sub-millisecond API end, coarse at the minutes-long simulation end.
var StageLatencyBounds = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000, 30_000, 60_000, 300_000}

// discardLogger builds a logger whose handler is disabled at every
// level, so call sites can log unconditionally.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DefaultQueueLimit bounds the queue when Config.QueueLimit is 0.
const DefaultQueueLimit = 256

// DefaultRetainJobs bounds the terminal-job history when
// Config.RetainJobs is 0.
const DefaultRetainJobs = 512

// job is the scheduler-internal record. All fields are guarded by
// Scheduler.mu once the job is registered.
type job struct {
	id       string
	spec     JobSpec
	seq      uint64
	state    State
	progress Progress
	err      error
	result   any

	submitted time.Time
	started   time.Time
	finished  time.Time
	deadline  time.Time // zero = none

	cancel   context.CancelCauseFunc // non-nil while running
	watchers map[chan struct{}]struct{}

	// trace is the job's span tree (nil when tracing is off); queuedSpan
	// is open from submission until a worker dequeues the job.
	trace      *obs.JobTrace
	queuedSpan obs.SpanHandle
	// encoded memoizes the JSON encoding of a succeeded job's result, so
	// the encode cost is paid (and its span recorded) once, not per fetch.
	encoded []byte

	heapIdx int // position in the queue heap, -1 when not queued
}

// Scheduler owns the job table, the bounded priority queue and the
// worker pool.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queue    jobHeap
	terminal []*job // finished jobs in completion order, oldest first
	seq      uint64
	draining bool

	wg sync.WaitGroup

	reg           *obs.Registry
	cSubmitted    *obs.Counter
	cCompleted    *obs.Counter
	cFailed       *obs.Counter
	cCanceled     *obs.Counter
	cRejected     *obs.Counter
	gQueueDepth   *obs.Gauge
	gRunning      *obs.Gauge
	hQueueWait    *obs.Histogram
	hRun          *obs.Histogram
	hEncode       *obs.Histogram
	runningGauges int

	logger *slog.Logger
}

// New starts a scheduler with cfg.Workers workers.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("service: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = DefaultRetainJobs
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Scheduler{
		cfg:         cfg,
		jobs:        make(map[string]*job),
		reg:         reg,
		cSubmitted:  reg.Counter("service.jobs_submitted"),
		cCompleted:  reg.Counter("service.jobs_succeeded"),
		cFailed:     reg.Counter("service.jobs_failed"),
		cCanceled:   reg.Counter("service.jobs_canceled"),
		cRejected:   reg.Counter("service.jobs_rejected"),
		gQueueDepth: reg.Gauge("service.queue_depth"),
		gRunning:    reg.Gauge("service.jobs_running"),
		hQueueWait:  reg.Histogram("service.stage.queue_wait_ms", StageLatencyBounds),
		hRun:        reg.Histogram("service.stage.run_ms", StageLatencyBounds),
		hEncode:     reg.Histogram("service.stage.encode_ms", StageLatencyBounds),
		logger:      cfg.Logger,
	}
	if s.logger == nil {
		s.logger = discardLogger()
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Obs returns the scheduler's telemetry registry.
func (s *Scheduler) Obs() *obs.Registry { return s.reg }

// Submit validates and enqueues a job, returning its ID.
func (s *Scheduler) Submit(spec JobSpec) (string, error) {
	return s.SubmitTraced(spec, nil)
}

// SubmitTraced is Submit with a span trace attached to the job: the
// scheduler opens the `queued` span now, propagates tr through the
// worker's context into the runner and result cache, and serves the
// finished tree via Trace. A nil tr records nothing (plain Submit).
func (s *Scheduler) SubmitTraced(spec JobSpec, tr *obs.JobTrace) (string, error) {
	if err := spec.normalize(); err != nil {
		return "", err
	}
	now := time.Now()
	s.mu.Lock()
	if s.draining {
		s.cRejected.Inc()
		s.mu.Unlock()
		s.logger.Info("job rejected", "reason", "draining", "trace", tr.TraceID())
		return "", ErrDraining
	}
	if s.queue.Len() >= s.cfg.QueueLimit {
		s.cRejected.Inc()
		depth := s.queue.Len()
		s.mu.Unlock()
		s.logger.Info("job rejected", "reason", "queue full", "queue_depth", depth, "trace", tr.TraceID())
		return "", ErrQueueFull
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%08d", s.seq),
		spec:      spec,
		seq:       s.seq,
		state:     StateQueued,
		submitted: now,
		watchers:  make(map[chan struct{}]struct{}),
		trace:     tr,
		heapIdx:   -1,
	}
	j.queuedSpan = tr.StartSpanAt("queued", obs.SpanHandle{}, now)
	if spec.DeadlineMS > 0 {
		j.deadline = now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	s.jobs[j.id] = j
	heap.Push(&s.queue, j)
	s.cSubmitted.Inc()
	depth := s.queue.Len()
	s.gQueueDepth.Set(float64(depth))
	s.cond.Signal()
	s.mu.Unlock()
	s.logger.Info("job submitted", "job", j.id, "kind", spec.Kind, "priority", spec.Priority,
		"queue_depth", depth, "trace", tr.TraceID())
	return j.id, nil
}

// Get returns the job's current snapshot. Result payloads are attached
// by the HTTP layer (see Result), not here, to keep list views light.
func (s *Scheduler) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.viewLocked(), nil
}

// Result returns the payload of a succeeded job.
func (s *Scheduler) Result(id string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch j.state {
	case StateSucceeded:
		return j.result, nil
	case StateFailed:
		return nil, fmt.Errorf("service: job %s failed: %w", id, j.err)
	case StateCanceled:
		return nil, fmt.Errorf("service: job %s canceled", id)
	default:
		return nil, fmt.Errorf("service: job %s not finished (state %s)", id, j.state)
	}
}

// EncodedResult returns the succeeded job's payload as JSON. The bytes
// are marshaled (and the job's `encode` span recorded) once, then
// memoized, so event streams and repeated fetches reuse one encoding.
// Callers must treat the returned slice as read-only.
func (s *Scheduler) EncodedResult(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state != StateSucceeded {
		s.mu.Unlock()
		// Route through Result for the per-state error shape.
		_, err := s.Result(id)
		if err == nil {
			err = fmt.Errorf("service: job %s not finished", id)
		}
		return nil, err
	}
	if j.encoded != nil {
		b := j.encoded
		s.mu.Unlock()
		return b, nil
	}
	res, tr := j.result, j.trace
	s.mu.Unlock()

	start := time.Now()
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("service: encode job %s result: %w", id, err)
	}
	s.hEncode.Observe(durMS(time.Since(start)))
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.encoded == nil {
		j.encoded = b
		// Only the winning encoder records the span, so the tree carries
		// exactly one `encode` even under concurrent first fetches.
		sp := tr.StartSpanAt("encode", obs.SpanHandle{}, start)
		sp.SetAttr("bytes", fmt.Sprintf("%d", len(b)))
		sp.End()
	}
	return j.encoded, nil
}

// TraceView is the JSON shape of GET /v1/jobs/{id}/trace: the job's
// whole span tree plus its correlation ID.
type TraceView struct {
	JobID   string     `json:"job_id"`
	TraceID string     `json:"trace_id"`
	State   State      `json:"state"`
	Spans   []obs.Span `json:"spans"`
}

// Trace returns the job's span tree so far (terminal jobs have the
// complete tree once their result has been fetched, which records the
// final `encode` span). ErrNoTrace if the job was submitted untraced.
func (s *Scheduler) Trace(id string) (TraceView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return TraceView{}, ErrNotFound
	}
	tr, state := j.trace, j.state
	s.mu.Unlock()
	if tr == nil {
		return TraceView{}, fmt.Errorf("%w: %s", ErrNoTrace, id)
	}
	return TraceView{JobID: id, TraceID: tr.TraceID(), State: state, Spans: tr.Snapshot()}, nil
}

// HealthView is the readiness snapshot served by /readyz. Ready flips
// to false the moment Drain starts, so load balancers and probes stop
// routing to a terminating daemon while its in-flight jobs finish.
type HealthView struct {
	Ready      bool `json:"ready"`
	Draining   bool `json:"draining"`
	QueueDepth int  `json:"queue_depth"`
	QueueLimit int  `json:"queue_limit"`
	Running    int  `json:"running"`
	Workers    int  `json:"workers"`
}

// Health reports the scheduler's readiness and load.
func (s *Scheduler) Health() HealthView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return HealthView{
		Ready:      !s.draining,
		Draining:   s.draining,
		QueueDepth: s.queue.Len(),
		QueueLimit: s.cfg.QueueLimit,
		Running:    s.runningGauges,
		Workers:    s.cfg.Workers,
	}
}

// List returns a snapshot of every job, newest submission first.
func (s *Scheduler) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.viewLocked())
	}
	// IDs are fixed-width ("j%08d"), so string order is submission
	// order; newest first.
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Cancel stops a job: a queued job is canceled immediately, a running
// job has its context canceled and finalizes as canceled when the
// runner returns. Canceling a terminal job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		if j.heapIdx >= 0 {
			heap.Remove(&s.queue, j.heapIdx)
			j.heapIdx = -1
			s.gQueueDepth.Set(float64(s.queue.Len()))
		}
		s.finalizeLocked(j, StateCanceled, nil, errClientCancel)
	case StateRunning:
		j.cancel(errClientCancel)
	}
	return nil
}

// Watch streams job snapshots to fn: once immediately, then after every
// change, until the job reaches a terminal state (nil return), ctx ends,
// or fn errors. Updates are coalesced — observers always see the latest
// state, not necessarily every intermediate progress value.
func (s *Scheduler) Watch(ctx context.Context, id string, fn func(JobView) error) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	ch := make(chan struct{}, 1)
	j.watchers[ch] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(j.watchers, ch)
		s.mu.Unlock()
	}()
	for {
		s.mu.Lock()
		v := j.viewLocked()
		s.mu.Unlock()
		if err := fn(v); err != nil {
			return err
		}
		if v.State.Terminal() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Drain gracefully shuts the scheduler down: new submissions are
// rejected, still-queued jobs are canceled, and in-flight jobs run to
// completion — unless ctx expires first, at which point they are
// force-canceled. Drain returns once every worker has exited.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.logger.Info("drain started", "queued", s.queue.Len(), "running", s.runningGauges)
	for s.queue.Len() > 0 {
		j := heap.Pop(&s.queue).(*job)
		j.heapIdx = -1
		s.finalizeLocked(j, StateCanceled, nil, errors.New("server shutting down"))
	}
	s.gQueueDepth.Set(0)
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logger.Info("drain complete")
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.cancel(fmt.Errorf("drain timeout: %w", ctx.Err()))
			}
		}
		s.mu.Unlock()
		<-done
		s.logger.Info("drain complete", "forced", true)
		return ctx.Err()
	}
}

// worker pops jobs by priority until drain empties the queue.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		j.heapIdx = -1
		s.gQueueDepth.Set(float64(s.queue.Len()))
		if j.state != StateQueued {
			// Canceled while queued (defensive: Cancel finalizes without
			// popping, so a dead entry can surface here).
			s.mu.Unlock()
			continue
		}
		now := time.Now()
		j.queuedSpan.End()
		s.hQueueWait.Observe(durMS(now.Sub(j.submitted)))
		if !j.deadline.IsZero() && now.After(j.deadline) {
			s.finalizeLocked(j, StateFailed, nil, ErrDeadline)
			s.mu.Unlock()
			continue
		}
		ctx := context.Background()
		var cancelTimeout context.CancelFunc
		if !j.deadline.IsZero() {
			ctx, cancelTimeout = context.WithDeadline(ctx, j.deadline)
		}
		ctx, cancelCause := context.WithCancelCause(ctx)
		j.cancel = cancelCause
		j.state = StateRunning
		j.started = now
		s.runningGauges++
		s.gRunning.Set(float64(s.runningGauges))
		j.notifyLocked()
		spec := j.spec
		s.mu.Unlock()
		s.logger.Info("job running", "job", j.id, "kind", spec.Kind,
			"queue_wait_ms", durMS(now.Sub(j.submitted)), "trace", j.trace.TraceID())

		// The context carries the job's trace down through the runner and
		// the result cache, which record the cache-lookup/run/cache-store
		// spans per simulation cell.
		payload, err := s.cfg.Runner.Run(obs.ContextWithJobTrace(ctx, j.trace), spec, func(done, total int) {
			s.mu.Lock()
			j.progress = Progress{Done: done, Total: total}
			j.notifyLocked()
			s.mu.Unlock()
		})
		s.hRun.Observe(durMS(time.Since(now)))

		// Read the context's verdict before releasing it: cancelCause
		// below self-cancels ctx, after which every job — including one
		// whose runner simply failed — would look context-canceled.
		ctxErr := ctx.Err()
		cause := context.Cause(ctx)
		if cancelTimeout != nil {
			cancelTimeout()
		}
		cancelCause(nil)

		s.mu.Lock()
		state := StateSucceeded
		if err != nil {
			state = StateFailed
			// Distinguish why the context died: client cancel vs deadline.
			if ctxErr != nil {
				switch {
				case errors.Is(ctxErr, context.DeadlineExceeded):
					err = ErrDeadline
				case errors.Is(cause, errClientCancel):
					state, err = StateCanceled, cause
				case cause != nil:
					err = cause
				}
			}
		}
		s.runningGauges--
		s.gRunning.Set(float64(s.runningGauges))
		s.finalizeLocked(j, state, payload, err)
		s.mu.Unlock()
	}
}

// finalizeLocked moves j to a terminal state and wakes watchers.
// Caller holds s.mu.
func (s *Scheduler) finalizeLocked(j *job, state State, payload any, err error) {
	if j.state.Terminal() {
		return
	}
	// A job canceled while still queued (client cancel, drain, expired
	// deadline) never reached a worker; close its queue span here.
	j.queuedSpan.End()
	j.state = state
	j.result = payload
	j.err = err
	j.finished = time.Now()
	j.cancel = nil
	switch state {
	case StateSucceeded:
		s.cCompleted.Inc()
	case StateFailed:
		s.cFailed.Inc()
	case StateCanceled:
		s.cCanceled.Inc()
	}
	j.notifyLocked()
	logAttrs := []any{"job", j.id, "state", string(state), "trace", j.trace.TraceID(),
		"total_ms", durMS(j.finished.Sub(j.submitted))}
	if err != nil {
		logAttrs = append(logAttrs, "error", err.Error())
	}
	s.logger.Info("job finished", logAttrs...)
	// Evict the oldest terminal jobs past the retention bound so the
	// table (and the result payloads it pins) stays bounded. Watchers
	// hold their own *job and have already been woken with the terminal
	// snapshot, so eviction only affects future lookups by ID.
	s.terminal = append(s.terminal, j)
	if s.cfg.RetainJobs > 0 {
		for len(s.terminal) > s.cfg.RetainJobs {
			old := s.terminal[0]
			s.terminal[0] = nil
			s.terminal = s.terminal[1:]
			delete(s.jobs, old.id)
		}
	}
}

// notifyLocked pokes every watcher, coalescing bursts.
func (j *job) notifyLocked() {
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// viewLocked snapshots the job. Caller holds the scheduler mutex.
func (j *job) viewLocked() JobView {
	v := JobView{
		ID:         j.id,
		Kind:       j.spec.Kind,
		State:      j.state,
		Priority:   j.spec.Priority,
		Progress:   j.progress,
		Submitted:  j.submitted,
		DeadlineMS: j.spec.DeadlineMS,
		TraceID:    j.trace.TraceID(),
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// jobHeap orders queued jobs by descending priority, then submission
// order. It implements container/heap.Interface.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].spec.Priority != h[b].spec.Priority {
		return h[a].spec.Priority > h[b].spec.Priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].heapIdx = a
	h[b].heapIdx = b
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
