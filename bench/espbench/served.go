package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/service"
	"espnuca/internal/workload"
)

// daemon is a running espserved.
type daemon interface {
	// url is the daemon's base URL.
	url() string
	// stop shuts the daemon down and returns its peak RSS.
	stop() (peakRSSMB float64, err error)
}

// servedWorkload drives espserved through its HTTP API with o.nproc
// closed-loop clients (closed because espctl users wait on their jobs).
// Each job is submit, wait, fetch. The cold phase submits every cell
// once, so every job computes and stores; the warm phase resubmits the
// cells round-robin until the run's time is up, so every job is a cache
// hit.
type servedWorkload struct {
	name  string
	arch  string
	cells []string
	// warmup and instructions override the service's default budget
	// when non-zero.
	warmup, instructions uint64
	// profileSeconds is the length of each daemon CPU profile a traced
	// run takes: one from the start of the cold phase, one covering the
	// warm phase.
	profileSeconds int
	// start launches a daemon with an empty result cache.
	start func(o options) (daemon, error)
}

// servedDefault runs the esp-nuca cell of every catalog workload at the
// service's default budget.
var servedDefault = servedWorkload{name: "served", arch: "esp-nuca", cells: catalogNames(), profileSeconds: 4, start: startEspserved}

func catalogNames() []string {
	var names []string
	for _, s := range workload.Catalog() {
		names = append(names, s.Name)
	}
	return names
}

// servedOnly are the per-layer metrics only the served workload
// measures; the others report them as 0.
var servedOnly = []string{
	"service.submit_frac", "service.wait_frac", "service.fetch_frac",
	"service.queue_wait_frac", "service.encode_frac", "service.run_frac",
	"resultcache.lookup_frac", "resultcache.store_frac", "resultcache.hit_frac",
}

// execDaemon is an espserved child process.
type execDaemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once stdout reaches EOF
	stderr  *tailWriter
}

// tailWriter keeps the last tailBytes written to it: the daemon logs
// every request, and only the end of the log explains a failure.
type tailWriter struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4096

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf[max(0, len(t.buf)-tailBytes):])
}

// startEspserved launches the espserved binary with a fresh result cache
// and returns once /readyz answers 200.
func startEspserved(o options) (daemon, error) {
	cacheDir := filepath.Join(o.outDir, "cache")
	if err := os.RemoveAll(cacheDir); err != nil {
		return nil, err
	}
	cmd := exec.Command(o.espserved, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir,
		"-workers", strconv.Itoa(o.nproc), "-pprof")
	d := &execDaemon{cmd: cmd, drained: make(chan struct{}), stderr: &tailWriter{}}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start espserved: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "espserved listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("espserved exited before listening: %s", d.stderr)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("espserved did not report its address within 30s: %s", d.stderr)
	}
	if err := waitReady(d.base, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200. Its connections are
// closed after each poll, so they never add to the client load.
func waitReady(base string, limit time.Duration) error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready within %v (last error: %v)", base, limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *execDaemon) url() string { return d.base }

// stop sends SIGTERM (a graceful drain), kills the daemon if it has not
// exited within 30s, and reads its peak RSS from its rusage.
func (d *execDaemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	// A daemon signalled before it installs its handler dies of the
	// SIGTERM itself; that is a clean stop too.
	if err := d.cmd.Wait(); err != nil {
		ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
			return 0, fmt.Errorf("espserved: %w: %s", err, d.stderr)
		}
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("espserved: no rusage")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// client talks to the daemon over at most conns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 5 * time.Minute}}
}

func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func (c *client) get(path string) ([]byte, error) {
	b, code, err := c.do(http.MethodGet, path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(b))
	}
	return b, err
}

// jobTimes are the client-side spans of one job.
type jobTimes struct {
	start                      time.Time
	submitted, waited, fetched time.Time
}

func (t jobTimes) latency() time.Duration { return t.fetched.Sub(t.start) }

// job submits spec, follows the job's event stream until it is
// terminal, and fetches its result payload.
func (c *client) job(spec service.RunSpec) (id string, payload []byte, t jobTimes, err error) {
	t.start = time.Now()
	body, err := json.Marshal(service.JobSpec{Run: &spec})
	if err != nil {
		return "", nil, t, err
	}
	b, code, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: %d %s", code, bytes.TrimSpace(b))
	}
	if err != nil {
		return "", nil, t, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return "", nil, t, fmt.Errorf("submit response: %w", err)
	}
	t.submitted = time.Now()
	b, err = c.get("/v1/jobs/" + sub.ID + "/events?format=jsonl")
	if err != nil {
		return sub.ID, nil, t, err
	}
	var last struct {
		State service.State `json:"state"`
		Error string        `json:"error"`
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return sub.ID, nil, t, fmt.Errorf("job %s events: %w", sub.ID, err)
	}
	if last.State != service.StateSucceeded {
		return sub.ID, nil, t, fmt.Errorf("job %s %s/%s ended %s: %s", sub.ID, spec.Arch, spec.Workload, last.State, last.Error)
	}
	t.waited = time.Now()
	payload, err = c.get("/v1/jobs/" + sub.ID + "/result")
	t.fetched = time.Now()
	return sub.ID, payload, t, err
}

// memStats reads the daemon's runtime.MemStats from its heap profile
// endpoint; keys are the field names (Mallocs, HeapInuse, ...).
func (c *client) memStats() (map[string]float64, error) {
	b, err := c.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			m[k] = f
		}
	}
	if _, ok := m["Mallocs"]; !ok {
		return nil, fmt.Errorf("no MemStats in the daemon's heap profile")
	}
	return m, nil
}

// closedLoop runs clients goroutines, each calling work(client index)
// until it returns false.
func closedLoop(clients int, work func(i int) bool) {
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for work(i) {
			}
		}()
	}
	wg.Wait()
}

func (w servedWorkload) spec(cell string, seed uint64) service.RunSpec {
	return service.RunSpec{Arch: w.arch, Workload: cell, Seed: seed, Warmup: w.warmup, Instructions: w.instructions}
}

// coldOut is what the cold phase produced.
type coldOut struct {
	payloads map[string][]byte
	ids      map[string]string
	latMS    []float64
	retired  uint64
	wall     time.Duration
}

// cold submits every cell once. Each result must match its golden
// digest for the seed.
func (w servedWorkload) cold(o options, c *client, r *report) coldOut {
	out := coldOut{payloads: map[string][]byte{}, ids: map[string]string{}}
	var mu sync.Mutex
	next := 0
	start := time.Now()
	closedLoop(o.nproc, func(int) bool {
		mu.Lock()
		if next == len(w.cells) {
			mu.Unlock()
			return false
		}
		cell := w.cells[next]
		next++
		mu.Unlock()
		id, payload, t, err := c.job(w.spec(cell, o.seed))
		var res experiment.RunResult
		if err == nil {
			err = json.Unmarshal(payload, &res)
		}
		if err == nil {
			err = checkGolden(fmt.Sprintf("%s/%d/%s", w.name, o.seed, cell), digest(payload))
		}
		mu.Lock()
		defer mu.Unlock()
		r.op(err)
		if err == nil {
			out.payloads[cell], out.ids[cell] = payload, id
			out.latMS = append(out.latMS, ms(t.latency()))
			out.retired += res.Retired
		}
		return true
	})
	out.wall = time.Since(start)
	return out
}

// warmJob is one finished warm-phase job.
type warmJob struct {
	client int
	cell   string
	id     string
	times  jobTimes
	traced bool
}

// warm resubmits the cells round-robin, starting at the seed's offset,
// until the deadline; each payload must be byte-identical to the cell's
// cold payload. When trace is non-nil, every other job of each client is
// traced: trace runs right after the job, in the client's loop.
func (w servedWorkload) warm(o options, c *client, r *report, cold coldOut, deadline time.Time, trace func(warmJob) error) []warmJob {
	var mu sync.Mutex
	var jobs []warmJob
	next := int(o.seed % uint64(len(w.cells)))
	count := make([]int, o.nproc)
	closedLoop(o.nproc, func(i int) bool {
		mu.Lock()
		if time.Now().After(deadline) || r.failed > 0 {
			mu.Unlock()
			return false
		}
		cell := w.cells[next]
		next = (next + 1) % len(w.cells)
		mu.Unlock()
		id, payload, t, err := c.job(w.spec(cell, o.seed))
		if err == nil && !bytes.Equal(payload, cold.payloads[cell]) {
			err = fmt.Errorf("served %s: warm payload differs from the cold one", cell)
		}
		j := warmJob{client: i, cell: cell, id: id, times: t, traced: trace != nil && count[i]%2 == 1}
		count[i]++
		if err == nil && j.traced {
			err = trace(j)
		}
		mu.Lock()
		defer mu.Unlock()
		r.op(err)
		if err == nil {
			jobs = append(jobs, j)
		}
		return true
	})
	return jobs
}

// checkRuns checks the daemon simulated each cell exactly once, and
// returns the cache hit fraction.
func (w servedWorkload) checkRuns(c *client) (hitFrac float64, err error) {
	b, err := c.get("/v1/cache/stats")
	if err != nil {
		return 0, err
	}
	var st struct {
		MemHits  uint64 `json:"mem_hits"`
		DiskHits uint64 `json:"disk_hits"`
		Misses   uint64 `json:"misses"`
		Runs     uint64 `json:"runs"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, err
	}
	if st.Runs != uint64(len(w.cells)) {
		return 0, fmt.Errorf("served: cache ran %d simulations for %d cells", st.Runs, len(w.cells))
	}
	hits := float64(st.MemHits + st.DiskHits)
	return ratio(hits, hits+float64(st.Misses)), nil
}

func (w servedWorkload) run(o options) (*report, error) {
	if o.trace {
		return w.runTraced(o)
	}
	r := newReport()
	// Set-up is a daemon launch, to /readyz answering 200; the last
	// daemon launched serves the run.
	var d daemon
	setup, err := timeSetup(o, func() (time.Duration, error) {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		var err error
		d, err = w.start(o)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	r.values["setup_s"] = setup
	c := newClient(d.url(), o.nproc)

	begin := time.Now()
	cold := w.cold(o, c, r)
	before, err := c.memStats()
	if err != nil {
		d.stop()
		return nil, err
	}
	warmFor := max(o.duration-time.Since(begin), o.duration/4)
	jobs := w.warm(o, c, r, cold, time.Now().Add(warmFor), nil)
	after, err := c.memStats()
	if err != nil {
		d.stop()
		return nil, err
	}
	_, err = w.checkRuns(c)
	r.check(err)
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}

	var lat []float64
	for _, j := range jobs {
		lat = append(lat, ms(j.times.latency()))
	}
	r.values["op_ms_p50"] = median(lat)
	var coldMS float64
	for _, l := range cold.latMS {
		coldMS += l
	}
	r.values["sim_kips"] = ratio(float64(cold.retired), coldMS) // instructions per ms are kIPS
	r.values["allocs_per_op"] = ratio(after["Mallocs"]-before["Mallocs"], float64(len(jobs)))
	r.values["peak_rss_mb"] = rss
	r.note(describe("warm job_ms", "ms", lat))
	r.note(describe("cold job_ms", "ms", cold.latMS))
	r.note("jobs_per_s: %.1f warm jobs/s", float64(len(jobs))/warmFor.Seconds())
	return r, nil
}

// serverSpans fetches a job's span tree, records it on lane and returns
// each span name's total duration.
func (c *client) serverSpans(id string, tr *tracer, lane int) (map[string]time.Duration, error) {
	b, err := c.get("/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	var tv service.TraceView
	if err := json.Unmarshal(b, &tv); err != nil {
		return nil, err
	}
	sums := map[string]time.Duration{}
	for _, sp := range tv.Spans {
		sums[sp.Name] += sp.Duration()
		if !sp.End.IsZero() {
			tr.span(sp.Name, "server", sp.Start, sp.End, lane)
		}
	}
	return sums, nil
}

// runTraced takes the per-layer metrics: a daemon CPU profile in each
// phase; client spans plus the daemon's span tree for every cold job
// and every other warm job (the untraced warm jobs give the tracing
// overhead); then an in-process re-run of every cell through the tracer,
// whose results must equal the served payloads.
func (w servedWorkload) runTraced(o options) (*report, error) {
	r := newReport()
	tr := newTracer(o.nproc)
	d, err := w.start(o)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	c := newClient(d.url(), o.nproc)
	// Each profile request holds one more connection for its whole
	// length; it carries no jobs.
	profClient := newClient(d.url(), 1)
	profile := func(name string) (string, chan error) {
		path := filepath.Join(o.outDir, name)
		done := make(chan error, 1)
		go func() {
			b, err := profClient.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", w.profileSeconds))
			if err == nil {
				err = os.WriteFile(path, b, 0o644)
			}
			done <- err
		}()
		return path, done
	}
	// Server spans land on lanes after the client lanes.
	serverLane := func(client int) int { return o.nproc + client }

	coldProf, coldDone := profile("served-cold.pprof")
	cold := w.cold(o, c, r)
	if err := <-coldDone; err != nil {
		return nil, err
	}
	var coldLat, run, store time.Duration
	var runMS []float64
	for _, l := range cold.latMS {
		coldLat += time.Duration(l * float64(time.Millisecond))
	}
	for _, cell := range w.cells {
		id, ok := cold.ids[cell]
		if !ok {
			continue
		}
		spans, err := c.serverSpans(id, tr, serverLane(0))
		if err != nil {
			return nil, err
		}
		runMS = append(runMS, ms(spans["run"]))
		run += spans["run"]
		store += spans["cache-store"]
	}

	var mu sync.Mutex
	var submit, wait, fetch, tracedLat time.Duration
	server := map[string]time.Duration{}
	trace := func(j warmJob) error {
		spans, err := c.serverSpans(j.id, tr, serverLane(j.client))
		if err != nil {
			return err
		}
		t := j.times
		tr.span("job "+j.cell, "client", t.start, t.fetched, j.client)
		tr.span("submit", "client", t.start, t.submitted, j.client)
		tr.span("wait", "client", t.submitted, t.waited, j.client)
		tr.span("fetch", "client", t.waited, t.fetched, j.client)
		mu.Lock()
		defer mu.Unlock()
		submit += t.submitted.Sub(t.start)
		wait += t.waited.Sub(t.submitted)
		fetch += t.fetched.Sub(t.waited)
		tracedLat += t.latency()
		for name, d := range spans {
			server[name] += d
		}
		return nil
	}
	warmProf, warmDone := profile("served-warm.pprof")
	jobs := w.warm(o, c, r, cold, time.Now().Add(time.Duration(w.profileSeconds)*time.Second), trace)
	if err := <-warmDone; err != nil {
		return nil, err
	}
	var plain, traced []float64
	for _, j := range jobs {
		if j.traced {
			traced = append(traced, ms(j.times.latency()))
		} else {
			plain = append(plain, ms(j.times.latency()))
		}
	}
	hitFrac, err := w.checkRuns(c)
	r.check(err)
	mem, err := c.memStats()
	if err != nil {
		return nil, err
	}
	_, err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	// The in-process re-run supplies the simulator-layer metrics and is
	// this workload's non-perturbation check.
	for _, cell := range w.cells {
		payload, ok := cold.payloads[cell]
		if !ok {
			continue
		}
		var want experiment.RunResult
		if err := json.Unmarshal(payload, &want); err != nil {
			return nil, err
		}
		rc, err := w.spec(cell, o.seed).Config()
		if err != nil {
			return nil, err
		}
		got, err := tr.run(rc)
		if err == nil && !sameRun(got, want) {
			err = fmt.Errorf("served %s: traced in-process run differs from the served result", cell)
		}
		r.op(err)
	}
	tr.agg.layerMetrics(r.values)

	shares, err := cpuShares(coldProf, warmProf)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		r.values[name+".cpu_share"] = v
	}
	r.values["runtime.gc_cpu_frac"] = mem["GCCPUFraction"]
	r.values["runtime.heap_inuse_mb"] = mem["HeapInuse"] / (1 << 20)
	r.values["experiment.run_ms"] = median(runMS)
	r.values["experiment.pool_busy_frac"] = ratio(float64(run), float64(o.nproc)*float64(cold.wall))
	warmShare := func(d time.Duration) float64 { return ratio(float64(d), float64(tracedLat)) }
	r.values["service.submit_frac"] = warmShare(submit)
	r.values["service.wait_frac"] = warmShare(wait)
	r.values["service.fetch_frac"] = warmShare(fetch)
	r.values["service.queue_wait_frac"] = warmShare(server["queued"])
	r.values["service.encode_frac"] = warmShare(server["encode"])
	r.values["resultcache.lookup_frac"] = warmShare(server["cache-lookup"])
	r.values["service.run_frac"] = ratio(float64(run), float64(coldLat))
	r.values["resultcache.store_frac"] = ratio(float64(store), float64(coldLat))
	r.values["resultcache.hit_frac"] = hitFrac
	r.values["trace.overhead_frac"] = ratio(median(traced), median(plain)) - 1
	r.note(describe("untraced warm job_ms", "ms", plain))
	r.note(describe("traced warm job_ms", "ms", traced))
	return r, tr.writeSpans(filepath.Join(o.outDir, "spans.json"))
}
