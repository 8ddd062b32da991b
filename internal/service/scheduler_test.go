package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockingRunner lets tests hold jobs in the running state and observe
// execution order.
type blockingRunner struct {
	mu      sync.Mutex
	order   []string
	release chan struct{} // closed (or fed) to let runs finish
	block   bool
}

func label(spec JobSpec) string {
	if spec.Run != nil {
		return spec.Run.Workload
	}
	return "matrix"
}

func (r *blockingRunner) Run(ctx context.Context, spec JobSpec, progress func(done, total int)) (any, error) {
	r.mu.Lock()
	r.order = append(r.order, label(spec))
	r.mu.Unlock()
	progress(0, 1)
	if r.block {
		select {
		case <-r.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	progress(1, 1)
	return map[string]string{"ran": label(spec)}, nil
}

func runSpec(wl string) JobSpec {
	return JobSpec{Run: &RunSpec{Arch: "esp-nuca", Workload: wl}}
}

func waitTerminal(t *testing.T, s *Scheduler, id string) JobView {
	t.Helper()
	var last JobView
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.Watch(ctx, id, func(v JobView) error {
		last = v
		return nil
	})
	if err != nil {
		t.Fatalf("watch %s: %v", id, err)
	}
	return last
}

func TestSubmitRunSucceeds(t *testing.T) {
	s, err := New(Config{Workers: 1, Runner: &blockingRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	id, err := s.Submit(runSpec("apache"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, s, id)
	if v.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", v.State, v.Error)
	}
	if v.Progress.Done != 1 || v.Progress.Total != 1 {
		t.Errorf("progress = %+v, want 1/1", v.Progress)
	}
	if _, err := s.Result(id); err != nil {
		t.Errorf("result: %v", err)
	}
}

func TestSubmitValidatesEagerly(t *testing.T) {
	s, err := New(Config{Workers: 1, Runner: &blockingRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ccFive, ccNeg := 5.0, -0.5
	bad := []JobSpec{
		{},                                  // no payload
		{Run: &RunSpec{Arch: "esp-nuca"}},   // missing workload
		{Run: &RunSpec{Workload: "apache"}}, // missing arch
		{Run: &RunSpec{Arch: "x", Workload: "nosuch"}},                                                               // bad workload
		{Run: &RunSpec{Arch: "esp-nuca", Workload: "apache", CCProbability: 1.5}},                                    // cc_probability > 1
		{Run: &RunSpec{Arch: "esp-nuca", Workload: "apache", CCProbability: -0.2}},                                   // cc_probability <= 0
		{Kind: KindMatrix, Matrix: &MatrixSpec{}},                                                                    // empty matrix
		{Kind: KindMatrix, Matrix: &MatrixSpec{Workloads: []string{"apache"}}},                                       // no variants
		{Kind: KindMatrix, Matrix: &MatrixSpec{Workloads: []string{"apache"}, VariantSet: "nope"}},                   // bad set
		{Kind: "weird", Run: &RunSpec{Arch: "esp-nuca", Workload: "apache"}},                                         // bad kind
		{Run: &RunSpec{Arch: "esp-nuca", Workload: "apache"}, Matrix: &MatrixSpec{Workloads: []string{"apache"}}},    // both payloads, kind ambiguous
		{Run: &RunSpec{Arch: "nope", Workload: "apache"}},                                                            // unknown arch
		{Matrix: &MatrixSpec{Workloads: []string{"apache"}, Variants: []VariantSpec{{Arch: "nope"}}}},                // unknown variant arch
		{Matrix: &MatrixSpec{Workloads: []string{"apache"}, Variants: []VariantSpec{{Arch: "cc", CCProb: &ccFive}}}}, // cc_prob > 1
		{Matrix: &MatrixSpec{Workloads: []string{"apache"}, Variants: []VariantSpec{{Arch: "cc", CCProb: &ccNeg}}}},  // cc_prob < 0
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %d accepted, want rejection", i)
		}
	}
}

// TestFailedJobKeepsRunnerError pins the worker's post-run
// reclassification: releasing the job context must not relabel a
// genuine runner failure as "context canceled".
func TestFailedJobKeepsRunnerError(t *testing.T) {
	boom := errors.New("boom")
	r := RunnerFunc(func(ctx context.Context, spec JobSpec, progress func(done, total int)) (any, error) {
		return nil, boom
	})
	s, err := New(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	id, err := s.Submit(runSpec("apache"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, s, id)
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	if v.Error != "boom" {
		t.Errorf("error = %q, want the runner's %q", v.Error, "boom")
	}
	if _, err := s.Result(id); !errors.Is(err, boom) {
		t.Errorf("Result error = %v, want wrapped boom", err)
	}
}

// TestRetainEvictsOldestTerminal pins the retention policy: only the
// newest RetainJobs terminal jobs stay queryable.
func TestRetainEvictsOldestTerminal(t *testing.T) {
	s, err := New(Config{Workers: 1, RetainJobs: 2, Runner: &blockingRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	var ids []string
	for _, wl := range []string{"apache", "jbb", "oltp", "zeus"} {
		id, err := s.Submit(runSpec(wl))
		if err != nil {
			t.Fatal(err)
		}
		// One job at a time so completion order matches submission order.
		waitTerminal(t, s, id)
		ids = append(ids, id)
	}
	for _, id := range ids[:2] {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("job %s: err = %v, want ErrNotFound after eviction", id, err)
		}
	}
	for _, id := range ids[2:] {
		v, err := s.Get(id)
		if err != nil {
			t.Fatalf("job %s evicted despite retention 2: %v", id, err)
		}
		if v.State != StateSucceeded {
			t.Errorf("job %s state = %s, want succeeded", id, v.State)
		}
	}
	if got := len(s.List()); got != 2 {
		t.Errorf("List() length = %d, want 2", got)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	r := &blockingRunner{block: true, release: make(chan struct{})}
	s, err := New(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	// First job occupies the single worker; the rest queue up.
	first, err := s.Submit(runSpec("apache"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is running so the others truly queue.
	for {
		v, _ := s.Get(first)
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	lowID, _ := s.Submit(JobSpec{Run: &RunSpec{Arch: "esp-nuca", Workload: "jbb"}, Priority: 1})
	highID, _ := s.Submit(JobSpec{Run: &RunSpec{Arch: "esp-nuca", Workload: "oltp"}, Priority: 9})
	midID, _ := s.Submit(JobSpec{Run: &RunSpec{Arch: "esp-nuca", Workload: "zeus"}, Priority: 5})
	close(r.release)
	for _, id := range []string{first, lowID, highID, midID} {
		waitTerminal(t, s, id)
	}
	r.mu.Lock()
	got := strings.Join(r.order, ",")
	r.mu.Unlock()
	if got != "apache,oltp,zeus,jbb" {
		t.Errorf("execution order %s, want apache,oltp,zeus,jbb", got)
	}
	s.Drain(context.Background())
}

func TestQueueFullRejects(t *testing.T) {
	r := &blockingRunner{block: true, release: make(chan struct{})}
	s, err := New(Config{Workers: 1, QueueLimit: 2, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(r.release); s.Drain(context.Background()) }()
	// One running + two queued fills the queue; the worker may still be
	// picking up the first, so allow three successes before the must-fail.
	var okCount, fullCount int
	for i := 0; i < 4; i++ {
		_, err := s.Submit(runSpec("apache"))
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrQueueFull):
			fullCount++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if fullCount == 0 {
		t.Errorf("no submission rejected with ErrQueueFull (ok=%d)", okCount)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	r := &blockingRunner{block: true, release: make(chan struct{})}
	s, err := New(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	running, _ := s.Submit(runSpec("apache"))
	for {
		v, _ := s.Get(running)
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued, _ := s.Submit(runSpec("jbb"))

	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(queued); v.State != StateCanceled {
		t.Errorf("queued job state = %s, want canceled", v.State)
	}
	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, s, running)
	if v.State != StateCanceled {
		t.Errorf("running job state = %s (%s), want canceled", v.State, v.Error)
	}
	if err := s.Cancel("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: %v, want ErrNotFound", err)
	}
	close(r.release)
	s.Drain(context.Background())
}

func TestDeadlineExpiresQueuedJob(t *testing.T) {
	r := &blockingRunner{block: true, release: make(chan struct{})}
	s, err := New(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	blocker, _ := s.Submit(runSpec("apache"))
	for {
		v, _ := s.Get(blocker)
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Queued behind the blocker with a deadline that expires in queue.
	doomed, _ := s.Submit(JobSpec{Run: &RunSpec{Arch: "esp-nuca", Workload: "jbb"}, DeadlineMS: 30})
	time.Sleep(60 * time.Millisecond)
	close(r.release)
	v := waitTerminal(t, s, doomed)
	if v.State != StateFailed || !strings.Contains(v.Error, "deadline") {
		t.Errorf("doomed job: state=%s err=%q, want deadline failure", v.State, v.Error)
	}
	s.Drain(context.Background())
}

func TestDeadlineCancelsRunningJob(t *testing.T) {
	r := &blockingRunner{block: true, release: make(chan struct{})}
	s, err := New(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Submit(JobSpec{Run: &RunSpec{Arch: "esp-nuca", Workload: "apache"}, DeadlineMS: 40})
	v := waitTerminal(t, s, id)
	if v.State != StateFailed || !strings.Contains(v.Error, "deadline") {
		t.Errorf("state=%s err=%q, want deadline failure", v.State, v.Error)
	}
	close(r.release)
	s.Drain(context.Background())
}

func TestDrainFinishesInFlightCancelsQueued(t *testing.T) {
	r := &blockingRunner{block: true, release: make(chan struct{})}
	s, err := New(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	inflight, _ := s.Submit(runSpec("apache"))
	for {
		v, _ := s.Get(inflight)
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued, _ := s.Submit(runSpec("jbb"))

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain must reject new work immediately.
	for {
		_, err := s.Submit(runSpec("oltp"))
		if err != nil {
			if !errors.Is(err, ErrDraining) {
				t.Errorf("submit during drain: %v, want ErrDraining", err)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}

	// The queued job is canceled promptly, the in-flight one finishes.
	if v := waitTerminal(t, s, queued); v.State != StateCanceled {
		t.Errorf("queued job state = %s, want canceled", v.State)
	}
	close(r.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v, _ := s.Get(inflight); v.State != StateSucceeded {
		t.Errorf("in-flight job state = %s, want succeeded (drain must not kill it)", v.State)
	}
}

func TestDrainTimeoutForceCancels(t *testing.T) {
	r := &blockingRunner{block: true, release: make(chan struct{})}
	s, err := New(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Submit(runSpec("apache"))
	for {
		v, _ := s.Get(id)
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want deadline exceeded", err)
	}
	if v, _ := s.Get(id); !v.State.Terminal() {
		t.Errorf("stuck job not terminal after forced drain: %s", v.State)
	}
}

func TestObsCounters(t *testing.T) {
	s, err := New(Config{Workers: 1, Runner: &blockingRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Submit(runSpec("apache"))
	waitTerminal(t, s, id)
	counters, _, _ := s.Obs().Snapshot()
	if counters["service.jobs_submitted"] != 1 || counters["service.jobs_succeeded"] != 1 {
		t.Errorf("counters = %v", counters)
	}
	s.Drain(context.Background())
}
