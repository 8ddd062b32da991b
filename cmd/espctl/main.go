// Command espctl is the client for espserved.
//
// Usage:
//
//	espctl [-addr http://127.0.0.1:8585] <command> [flags]
//
//	espctl submit -arch esp-nuca -workload apache -seed 2 [-wait] [-trace-id ID]
//	espctl submit -matrix -workloads apache,oltp -variant-set counterparts [-wait]
//	espctl wait j00000001
//	espctl fetch j00000001
//	espctl status j00000001
//	espctl trace j00000001
//	espctl jobs
//	espctl cancel j00000001
//	espctl cache-stats
//	espctl health
//	espctl ready
//
// wait streams the job's JSONL event feed and prints progress to
// stderr; fetch prints the result payload as JSON on stdout; trace
// renders the job's span tree as an indented timeline, which makes a
// result-cache hit visible (the tree stops at cache-lookup hit=true).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type client struct {
	base string
	http *http.Client
	// retries is the max transient-failure retries on idempotent (GET)
	// calls; 0 disables retrying.
	retries int
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "espctl:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8585", "espserved base URL")
	retries := flag.Int("retries", 4, "max retries of idempotent calls on transient errors (refused/reset, 502/503); 0 disables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: espctl [-addr URL] <submit|status|wait|fetch|trace|jobs|cancel|cache-stats|health|ready> [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &client{base: strings.TrimRight(*addr, "/"), http: &http.Client{}, retries: *retries}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = c.submit(args)
	case "status":
		err = c.status(args)
	case "wait":
		err = c.wait(args)
	case "fetch":
		err = c.fetch(args)
	case "trace":
		err = c.trace(args)
	case "jobs":
		err = c.jobs(args)
	case "cancel":
		err = c.cancel(args)
	case "cache-stats":
		err = c.getAndPrint("/v1/cache/stats")
	case "health":
		err = c.getAndPrint("/healthz")
	case "ready":
		err = c.ready()
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
}

// jobView mirrors service.JobView's wire shape (kept local so the
// client binary does not link the simulator).
type jobView struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Priority int    `json:"priority"`
	Progress struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	} `json:"progress"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
}

func terminal(state string) bool {
	return state == "succeeded" || state == "failed" || state == "canceled"
}

// do issues one API call. Idempotent calls — GETs, which status, wait
// (its polling fallback), fetch, jobs, trace, cache-stats and health
// all are — retry transient failures (connection refused/reset, 502,
// 503) with capped exponential backoff plus jitter, so a restarting or
// briefly overloaded daemon doesn't fail a watch loop. /readyz is
// exempt: its 503 is the answer ("draining"), not an outage. Writes
// (submit, cancel) are never retried — the caller must not risk a
// duplicate job.
func (c *client) do(method, path string, body any, hdrs ...[2]string) ([]byte, int, error) {
	attempts := 1
	if method == http.MethodGet && c.retries > 0 && path != "/readyz" {
		attempts = c.retries + 1
	}
	var (
		b    []byte
		code int
		err  error
	)
	backoff := 100 * time.Millisecond
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff/2+1))))
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		b, code, err = c.doOnce(method, path, body, hdrs...)
		// A transport error on a GET is always safe to retry; 502/503
		// mean a proxy or a draining daemon that may come back.
		if err == nil && code != http.StatusBadGateway && code != http.StatusServiceUnavailable {
			return b, code, nil
		}
	}
	return b, code, err
}

func (c *client) doOnce(method, path string, body any, hdrs ...[2]string) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, h := range hdrs {
		req.Header.Set(h[0], h[1])
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// apiErr extracts {"error": ...} bodies.
func apiErr(b []byte, code int) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s (HTTP %d)", e.Error, code)
	}
	return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(b))
}

func (c *client) getAndPrint(path string) error {
	b, code, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return apiErr(b, code)
	}
	os.Stdout.Write(b)
	return nil
}

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		archName = fs.String("arch", "esp-nuca", "architecture (run jobs)")
		wl       = fs.String("workload", "apache", "workload (run jobs)")
		seed     = fs.Uint64("seed", 0, "seed (0 = harness default)")
		warmup   = fs.Uint64("warmup", 0, "warmup instructions per core (0 = default)")
		instrs   = fs.Uint64("instructions", 0, "measured instructions per core (0 = default)")
		fullSize = fs.Bool("full-size", false, "simulate the paper's full Table 2 machine")
		ccProb   = fs.Float64("cc-prob", 0, "Cooperative Caching probability override (0 = default)")

		matrix     = fs.Bool("matrix", false, "submit a matrix job instead of a single run")
		workloads  = fs.String("workloads", "", "comma-separated workloads (matrix jobs)")
		variantSet = fs.String("variant-set", "counterparts", "matrix variant family: counterparts, cc or all")
		seeds      = fs.String("seeds", "", "comma-separated seeds (matrix jobs)")
		parallel   = fs.Int("parallel", 0, "per-job worker pool bound (matrix jobs)")

		priority = fs.Int("priority", 0, "queue priority (higher runs sooner)")
		deadline = fs.Duration("deadline", 0, "total deadline (queue + run), e.g. 90s (0 = none)")
		wait     = fs.Bool("wait", false, "wait for completion and print the result")
		traceID  = fs.String("trace-id", "", "propagate this correlation ID into the job's trace (empty = server-generated)")
	)
	fs.Parse(args)

	spec := map[string]any{}
	if *priority != 0 {
		spec["priority"] = *priority
	}
	if *deadline > 0 {
		spec["deadline_ms"] = deadline.Milliseconds()
	}
	if *matrix {
		m := map[string]any{"variant_set": *variantSet}
		if *workloads == "" {
			return fmt.Errorf("matrix jobs need -workloads")
		}
		m["workloads"] = strings.Split(*workloads, ",")
		if *seeds != "" {
			var ss []uint64
			for _, s := range strings.Split(*seeds, ",") {
				v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
				if err != nil {
					return fmt.Errorf("bad seed %q: %w", s, err)
				}
				ss = append(ss, v)
			}
			m["seeds"] = ss
		}
		if *warmup > 0 {
			m["warmup"] = *warmup
		}
		if *instrs > 0 {
			m["instructions"] = *instrs
		}
		if *parallel > 0 {
			m["parallelism"] = *parallel
		}
		spec["kind"], spec["matrix"] = "matrix", m
	} else {
		r := map[string]any{"arch": *archName, "workload": *wl}
		if *seed > 0 {
			r["seed"] = *seed
		}
		if *warmup > 0 {
			r["warmup"] = *warmup
		}
		if *instrs > 0 {
			r["instructions"] = *instrs
		}
		if *fullSize {
			r["full_size"] = true
		}
		if *ccProb != 0 {
			r["cc_probability"] = *ccProb
		}
		spec["kind"], spec["run"] = "run", r
	}

	var hdrs [][2]string
	if *traceID != "" {
		hdrs = append(hdrs, [2]string{"X-Trace-Id", *traceID})
	}
	b, code, err := c.do(http.MethodPost, "/v1/jobs", spec, hdrs...)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return apiErr(b, code)
	}
	var idResp struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(b, &idResp); err != nil {
		return err
	}
	if !*wait {
		fmt.Println(idResp.ID)
		return nil
	}
	if idResp.TraceID != "" {
		fmt.Fprintln(os.Stderr, "submitted", idResp.ID, "trace", idResp.TraceID)
	} else {
		fmt.Fprintln(os.Stderr, "submitted", idResp.ID)
	}
	return c.waitAndFetch(idResp.ID)
}

// streamEvents follows the job's JSONL event feed, reporting progress
// on stderr, and returns the terminal view. Falls back to polling if
// the stream breaks.
func (c *client) streamEvents(id string) (jobView, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events?format=jsonl")
	if err == nil && resp.StatusCode == http.StatusOK {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // matrix results can be large
		var v jobView
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				return v, fmt.Errorf("bad event: %w", err)
			}
			if v.Progress.Total > 0 {
				fmt.Fprintf(os.Stderr, "\r%s %s %d/%d", v.ID, v.State, v.Progress.Done, v.Progress.Total)
			} else {
				fmt.Fprintf(os.Stderr, "\r%s %s", v.ID, v.State)
			}
			if terminal(v.State) {
				fmt.Fprintln(os.Stderr)
				return v, nil
			}
		}
		fmt.Fprintln(os.Stderr)
		if err := sc.Err(); err != nil {
			return v, err
		}
	} else if resp != nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return jobView{}, apiErr(b, resp.StatusCode)
		}
	}
	// Stream ended without a terminal state (or never connected): poll.
	for {
		v, err := c.getJob(id)
		if err != nil {
			return v, err
		}
		if terminal(v.State) {
			return v, nil
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func (c *client) getJob(id string) (jobView, error) {
	b, code, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return jobView{}, err
	}
	if code != http.StatusOK {
		return jobView{}, apiErr(b, code)
	}
	var v jobView
	return v, json.Unmarshal(b, &v)
}

func (c *client) waitAndFetch(id string) error {
	v, err := c.streamEvents(id)
	if err != nil {
		return err
	}
	switch v.State {
	case "succeeded":
		return c.getAndPrint("/v1/jobs/" + id + "/result")
	case "canceled":
		return fmt.Errorf("job %s canceled", id)
	default:
		return fmt.Errorf("job %s failed: %s", id, v.Error)
	}
}

func needID(args []string, cmd string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: espctl %s <job-id>", cmd)
	}
	return args[0], nil
}

func (c *client) status(args []string) error {
	id, err := needID(args, "status")
	if err != nil {
		return err
	}
	return c.getAndPrint("/v1/jobs/" + id)
}

func (c *client) wait(args []string) error {
	id, err := needID(args, "wait")
	if err != nil {
		return err
	}
	return c.waitAndFetch(id)
}

func (c *client) fetch(args []string) error {
	id, err := needID(args, "fetch")
	if err != nil {
		return err
	}
	return c.getAndPrint("/v1/jobs/" + id + "/result")
}

// span and traceView mirror the /v1/jobs/{id}/trace wire shape.
type span struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs"`
}

type traceView struct {
	JobID   string `json:"job_id"`
	TraceID string `json:"trace_id"`
	State   string `json:"state"`
	Spans   []span `json:"spans"`
}

func fmtMS(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 1, 64) + "ms"
}

// fmtAttrs renders an attribute bag as sorted k=v pairs.
func fmtAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return "  " + strings.Join(parts, " ")
}

// trace renders the job's span tree as an indented timeline: one line
// per span with its offset from the trace start, duration, a scaled
// bar, and its attributes. A warm resubmission is immediately visible:
// the tree ends at `cache-lookup hit=true` with no `run` underneath.
func (c *client) trace(args []string) error {
	id, err := needID(args, "trace")
	if err != nil {
		return err
	}
	b, code, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return apiErr(b, code)
	}
	var tv traceView
	if err := json.Unmarshal(b, &tv); err != nil {
		return err
	}
	if len(tv.Spans) == 0 {
		fmt.Printf("trace %s  job %s (%s)  no spans\n", tv.TraceID, tv.JobID, tv.State)
		return nil
	}
	minStart, maxEnd := tv.Spans[0].Start, tv.Spans[0].Start
	for _, sp := range tv.Spans {
		if sp.Start.Before(minStart) {
			minStart = sp.Start
		}
		end := sp.End
		if end.IsZero() {
			end = sp.Start
		}
		if end.After(maxEnd) {
			maxEnd = end
		}
	}
	total := maxEnd.Sub(minStart)
	if total <= 0 {
		total = time.Millisecond
	}
	children := make(map[uint64][]span)
	for _, sp := range tv.Spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	fmt.Printf("trace %s  job %s (%s)  %d spans  %s\n",
		tv.TraceID, tv.JobID, tv.State, len(tv.Spans), fmtMS(total))
	const barWidth = 32
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		for _, sp := range children[parent] {
			off := sp.Start.Sub(minStart)
			end, open := sp.End, false
			if end.IsZero() {
				end, open = maxEnd, true
			}
			dur := end.Sub(sp.Start)
			lo := int(float64(off) / float64(total) * barWidth)
			hi := int(float64(off+dur) / float64(total) * barWidth)
			if lo >= barWidth {
				lo = barWidth - 1
			}
			if hi <= lo {
				hi = lo + 1
			}
			if hi > barWidth {
				hi = barWidth
			}
			bar := strings.Repeat(".", lo) + strings.Repeat("=", hi-lo) + strings.Repeat(".", barWidth-hi)
			durStr := fmtMS(dur)
			if open {
				durStr += " (open)"
			}
			name := strings.Repeat("  ", depth) + sp.Name
			fmt.Printf("  %-28s %10s %14s  [%s]%s\n",
				name, "+"+fmtMS(off), durStr, bar, fmtAttrs(sp.Attrs))
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	return nil
}

// ready prints the daemon's readiness snapshot; a draining (or
// otherwise not-ready) daemon exits non-zero.
func (c *client) ready() error {
	b, code, err := c.do(http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	os.Stdout.Write(b)
	if code != http.StatusOK {
		return fmt.Errorf("not ready (HTTP %d)", code)
	}
	return nil
}

func (c *client) jobs(args []string) error {
	b, code, err := c.do(http.MethodGet, "/v1/jobs", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return apiErr(b, code)
	}
	var views []jobView
	if err := json.Unmarshal(b, &views); err != nil {
		return err
	}
	if len(views) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-10s %-7s %-10s %4s %10s\n", "ID", "KIND", "STATE", "PRIO", "PROGRESS")
	for _, v := range views {
		prog := ""
		if v.Progress.Total > 0 {
			prog = fmt.Sprintf("%d/%d", v.Progress.Done, v.Progress.Total)
		}
		fmt.Printf("%-10s %-7s %-10s %4d %10s\n", v.ID, v.Kind, v.State, v.Priority, prog)
	}
	return nil
}

func (c *client) cancel(args []string) error {
	id, err := needID(args, "cancel")
	if err != nil {
		return err
	}
	b, code, err := c.do(http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return apiErr(b, code)
	}
	os.Stdout.Write(b)
	return nil
}
