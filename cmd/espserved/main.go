// Command espserved is the simulation-as-a-service daemon: it serves
// the experiment harness over HTTP, scheduling submitted jobs on a
// bounded priority queue and memoizing every simulation in a
// content-addressed result cache, so identical requests — across jobs,
// clients and restarts — cost one run.
//
// Usage:
//
//	espserved -addr :8585 -cache-dir /var/cache/espnuca
//	espserved -workers 2 -parallel 0 -queue 256
//	espserved -log-level debug -log-format json -pprof
//
// API (see internal/service):
//
//	GET    /healthz                 liveness
//	GET    /readyz                  readiness (503 while draining)
//	GET    /metricsz                service metrics + cache stats
//	                                (?format=prom: Prometheus exposition)
//	POST   /v1/jobs                 submit {"run": {...}} or {"matrix": {...}}
//	GET    /v1/jobs                 list
//	GET    /v1/jobs/{id}            status (+result when done)
//	DELETE /v1/jobs/{id}            cancel
//	GET    /v1/jobs/{id}/result     result payload
//	GET    /v1/jobs/{id}/trace      per-job span tree (espctl trace)
//	GET    /v1/jobs/{id}/events     progress stream (SSE; ?format=jsonl)
//	GET    /v1/cache/stats          result-cache counters
//	GET    /debug/pprof/...         runtime profiles (-pprof)
//
// One daemon is the whole deployment: each job's cells run on a
// bounded worker pool (-parallel, all processors by default), so a
// single process already keeps every processor of its host busy.
// Several daemons may share one -cache-dir; each result object is
// written atomically and is the same bytes whoever computes it.
//
// On SIGTERM/SIGINT the daemon stops accepting work, cancels queued
// jobs and lets in-flight jobs finish (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"espnuca/internal/resultcache"
	"espnuca/internal/service"
)

// newLogger builds the daemon's structured logger from the -log-level
// and -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
	return slog.New(h), nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8585", "listen address")
		cacheDir  = flag.String("cache-dir", "", "result cache directory (empty: in-memory cache only)")
		memEnts   = flag.Int("mem-entries", 0, "in-memory cache tier capacity (0 = default)")
		workers   = flag.Int("workers", 2, "jobs executed concurrently")
		queue     = flag.Int("queue", 0, "bounded queue limit (0 = default)")
		retain    = flag.Int("retain", 0, "terminal jobs kept queryable before eviction (0 = default, negative = unlimited)")
		parallel  = flag.Int("parallel", 0, "per-matrix-job worker pool bound (0 = all cores)")
		drainT    = flag.Duration("drain-timeout", 60*time.Second, "max time to wait for in-flight jobs on shutdown")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		tracing   = flag.Bool("trace", true, "record per-job span traces (GET /v1/jobs/{id}/trace)")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "espserved:", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	store, err := resultcache.Open(*cacheDir, resultcache.Options{MemEntries: *memEnts})
	if err != nil {
		fatal("open result cache", err)
	}

	// Bind before serving: with -addr :0 the printed address must be
	// the port actually picked.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}

	sched, err := service.New(service.Config{
		Workers:    *workers,
		QueueLimit: *queue,
		RetainJobs: *retain,
		Runner:     &service.SimRunner{Cache: store, Parallelism: *parallel},
		Logger:     logger,
	})
	if err != nil {
		fatal("start scheduler", err)
	}

	handler := service.NewServer(sched, store, service.ServerOptions{
		Logger:         logger,
		Pprof:          *pprofOn,
		DisableTracing: !*tracing,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}

	// The bound address line is machine-readable (the CI smoke test and
	// scripts scrape it when -addr :0 picks a free port).
	fmt.Printf("espserved listening on %s\n", ln.Addr())
	logger.Info("espserved started", "addr", ln.Addr().String(), "workers", *workers,
		"pprof", *pprofOn, "trace", *tracing)
	if *cacheDir != "" {
		logger.Info("result cache opened", "dir", *cacheDir)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", drainT.String())
	case err := <-errc:
		fatal("serve", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	// Drain and Shutdown share the timeout but must overlap: Shutdown
	// waits for open handlers, and an event stream watching a queued job
	// only terminates once Drain cancels that job — serializing Shutdown
	// first would let one open stream consume the whole budget and turn
	// the graceful drain into a force-cancel.
	drainc := make(chan error, 1)
	go func() { drainc <- sched.Drain(ctx) }()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := <-drainc; err != nil {
		logger.Warn("drain timed out, in-flight jobs were force-canceled", "error", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("serve", "error", err)
	}
	logger.Info("bye")
}
