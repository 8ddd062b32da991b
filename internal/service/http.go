package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"espnuca/internal/obs"
	"espnuca/internal/resultcache"
)

// TraceHeader carries a job's correlation ID both ways: clients may
// supply their own on POST /v1/jobs, and every response to a traced
// submission echoes the ID the daemon recorded.
const TraceHeader = "X-Trace-Id"

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// Logger receives one structured line per request (method, path,
	// status, duration, trace ID). Nil is silent.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose internals and should be opt-in.
	Pprof bool
	// DisableTracing stops the server from attaching span traces to
	// submissions (jobs run exactly as before; /v1/jobs/{id}/trace
	// returns 404).
	DisableTracing bool
}

// Server is the HTTP face of the simulation service.
//
//	GET  /healthz                 liveness + uptime
//	GET  /readyz                  readiness (503 while draining) + load
//	GET  /metricsz                obs registry snapshot + cache stats;
//	                              ?format=prom (or Accept: text/plain)
//	                              switches to Prometheus text exposition
//	POST /v1/jobs                 submit a JobSpec, returns {"id", "trace_id"}
//	GET  /v1/jobs                 list job snapshots, newest first
//	GET  /v1/jobs/{id}            one job snapshot (result attached when done)
//	DELETE /v1/jobs/{id}          cancel
//	GET  /v1/jobs/{id}/result     result payload of a succeeded job
//	GET  /v1/jobs/{id}/trace      the job's span tree (see TraceView)
//	GET  /v1/jobs/{id}/events     live snapshots until terminal: SSE by
//	                              default, JSONL with ?format=jsonl
//	GET  /v1/cache/stats          result-cache counters and tier sizes
//	GET  /debug/pprof/...         runtime profiles (ServerOptions.Pprof)
type Server struct {
	sched   *Scheduler
	cache   *resultcache.Store
	reg     *obs.Registry
	start   time.Time
	mux     *http.ServeMux
	logger  *slog.Logger
	tracing bool
}

// NewServer wires the API around a scheduler and its cache (cache may
// be nil when serving without memoization). Options are variadic so
// existing NewServer(sched, cache) call sites keep their behavior:
// tracing on, no request logs, no pprof.
func NewServer(sched *Scheduler, cache *resultcache.Store, opts ...ServerOptions) *Server {
	var opt ServerOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	s := &Server{
		sched:   sched,
		cache:   cache,
		reg:     sched.Obs(),
		start:   time.Now(),
		mux:     http.NewServeMux(),
		logger:  opt.Logger,
		tracing: !opt.DisableTracing,
	}
	if s.logger == nil {
		s.logger = discardLogger()
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /metricsz", s.handleMetricsz)
	s.route("POST /v1/jobs", s.handleSubmit)
	s.route("GET /v1/jobs", s.handleList)
	s.route("GET /v1/jobs/{id}", s.handleGet)
	s.route("DELETE /v1/jobs/{id}", s.handleCancel)
	s.route("GET /v1/jobs/{id}/result", s.handleResult)
	s.route("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.route("GET /v1/jobs/{id}/events", s.handleEvents)
	s.route("GET /v1/cache/stats", s.handleCacheStats)
	if opt.Pprof {
		// Raw handlers: profile endpoints are debug-only and their
		// latency (e.g. profile?seconds=30) would drown the histograms.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter records the response status for logging and metrics. It
// must keep forwarding Flush: the SSE event stream depends on it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeMetric lowers a ServeMux pattern into an instrument-name suffix:
// "POST /v1/jobs/{id}" -> "post_v1_jobs_id".
func routeMetric(pattern string) string {
	var b []byte
	for _, c := range []byte(strings.ToLower(pattern)) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b = append(b, c)
		case c == '{' || c == '}':
		default:
			if len(b) > 0 && b[len(b)-1] != '_' {
				b = append(b, '_')
			}
		}
	}
	return strings.TrimSuffix(string(b), "_")
}

// route registers a handler wrapped with per-endpoint latency
// observation and one structured request log line. The histogram is
// created per pattern (not per request), so the hot path only observes.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	hist := s.reg.Histogram("service.http.latency_ms."+routeMetric(pattern), StageLatencyBounds)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		ms := durMS(time.Since(start))
		hist.Observe(ms)
		attrs := []any{"method", r.Method, "path", r.URL.Path, "status", sw.status, "dur_ms", ms}
		trace := sw.Header().Get(TraceHeader)
		if trace == "" {
			trace = r.Header.Get(TraceHeader)
		}
		if trace != "" {
			attrs = append(attrs, "trace", trace)
		}
		s.logger.Info("http request", attrs...)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// errCode maps service errors to HTTP statuses.
func errCode(err error) int {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoTrace):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is the readiness half of the health split: it answers
// 503 the moment the scheduler starts draining, so probes and load
// balancers stop routing to a terminating daemon (which still answers
// /healthz 200 — it is alive, just not accepting work).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.sched.Health()
	code := http.StatusOK
	if !h.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// wantsProm decides the /metricsz representation: explicit ?format
// wins, then an Accept header asking for text/plain (what Prometheus
// sends) or openmetrics. Default stays JSON for human curl users.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = s.reg.WritePrometheus(w)
		if s.cache != nil {
			st := s.cache.Stats()
			for _, c := range []struct {
				name  string
				value uint64
			}{
				{"resultcache_mem_hits", st.MemHits},
				{"resultcache_disk_hits", st.DiskHits},
				{"resultcache_misses", st.Misses},
				{"resultcache_stores", st.Stores},
				{"resultcache_runs", st.Runs},
				{"resultcache_shared", st.Shared},
				{"resultcache_bypassed", st.Bypassed},
			} {
				fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.value)
			}
			fmt.Fprintf(w, "# TYPE resultcache_mem_entries gauge\nresultcache_mem_entries %d\n", st.MemEntries)
			fmt.Fprintf(w, "# TYPE resultcache_disk_entries gauge\nresultcache_disk_entries %d\n", st.DiskEntries)
		}
		return
	}
	counters, gauges, series := s.reg.Snapshot()
	out := map[string]any{
		"counters": counters,
		"gauges":   gauges,
	}
	if len(series) > 0 {
		out["series"] = series
	}
	if hists := s.reg.HistogramSummaries(); len(hists) > 0 {
		out["histograms"] = hists
	}
	if s.cache != nil {
		out["cache"] = s.cache.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeErr(w, http.StatusNotFound, errors.New("service: no result cache configured"))
		return
	}
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var tr *obs.JobTrace
	if s.tracing {
		// An X-Trace-Id from the client (espctl -trace-id) becomes the
		// job's correlation ID; otherwise one is generated.
		tr = obs.NewJobTrace(r.Header.Get(TraceHeader))
	}
	received := tr.StartSpan("received", obs.SpanHandle{})
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		received.End()
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
		return
	}
	id, err := s.sched.SubmitTraced(spec, tr)
	received.End()
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	resp := map[string]string{"id": id}
	if tr != nil {
		w.Header().Set(TraceHeader, tr.TraceID())
		resp["trace_id"] = tr.TraceID()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.List())
}

// viewWithResult attaches the result payload to a terminal succeeded
// view, reusing the scheduler's memoized encoding.
func (s *Server) viewWithResult(v JobView) JobView {
	if v.State != StateSucceeded {
		return v
	}
	if b, err := s.sched.EncodedResult(v.ID); err == nil {
		v.Result = b
	}
	return v
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, err := s.sched.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.viewWithResult(v))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	v, err := s.sched.Get(id)
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	b, err := s.sched.EncodedResult(r.PathValue("id"))
	if err != nil {
		code := errCode(err)
		if !errors.Is(err, ErrNotFound) {
			code = http.StatusConflict
		}
		writeErr(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// handleTrace serves the job's span tree. The tree grows with the job:
// queued jobs show the open `queued` span, finished jobs the whole
// lifecycle (the final `encode` span appears once the result has been
// fetched at least once).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tv, err := s.sched.Trace(r.PathValue("id"))
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, tv)
}

// handleEvents streams coalesced job snapshots until the job is
// terminal. Default framing is Server-Sent Events (`event: job`,
// `data: <JobView JSON>`); `?format=jsonl` switches to one JSON object
// per line for plain line-reader clients (espctl wait).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jsonl := r.URL.Query().Get("format") == "jsonl"
	flusher, canFlush := w.(http.Flusher)
	if jsonl {
		w.Header().Set("Content-Type", "application/jsonl")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
	}
	id := r.PathValue("id")
	err := s.sched.Watch(r.Context(), id, func(v JobView) error {
		v = s.viewWithResult(v)
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if jsonl {
			if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "event: job\ndata: %s\n\n", b); err != nil {
				return err
			}
		}
		if canFlush {
			flusher.Flush()
		}
		return nil
	})
	if errors.Is(err, ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
	}
	// Other errors (client gone, write failure) just end the stream.
}
