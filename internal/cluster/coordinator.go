package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"espnuca/internal/obs"
)

// Mux is where cluster endpoints register; *service.Server implements
// it (raw routes, outside the API's latency histograms), and tests use
// a bare http.ServeMux adapter.
type Mux interface {
	Handle(pattern string, h http.HandlerFunc)
}

// DefaultHeartbeatInterval is the cadence the coordinator grants
// workers at join when CoordinatorConfig.HeartbeatInterval is zero.
const DefaultHeartbeatInterval = 2 * time.Second

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// HeartbeatInterval is granted to workers at join; a node missing
	// roughly three beats (ExpireAfter) is declared dead. Short
	// intervals make the failure tests fast; production keeps seconds.
	HeartbeatInterval time.Duration
	// ExpireAfter overrides the death threshold (0: 3.5x the interval).
	ExpireAfter time.Duration
	// SelfAddr is this daemon's peer-reachable host:port; local-
	// fallback results are announced under it so workers can fetch
	// them. Empty disables the announcement.
	SelfAddr string
	// Obs receives the service.cluster.* instruments. Required.
	Obs *obs.Registry
	// Logger receives membership and lease lifecycle logs. Nil is
	// silent.
	Logger *slog.Logger
}

// Coordinator owns the fleet's soft state: the worker table and the
// cluster-wide lease/location table, both rebuilt from worker
// re-registration after a restart. Mount attaches its HTTP API to a
// service.Server; Start runs the heartbeat reaper.
type Coordinator struct {
	cfg    CoordinatorConfig
	m      *membership
	leases *leaseTable
	logger *slog.Logger

	cJoins     *obs.Counter
	cExpired   *obs.Counter
	cLeases    *obs.Counter
	cLeaseDone *obs.Counter
}

// NewCoordinator builds a coordinator with empty tables.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.ExpireAfter <= 0 {
		cfg.ExpireAfter = cfg.HeartbeatInterval * 7 / 2
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	c := &Coordinator{
		cfg:        cfg,
		leases:     newLeaseTable(),
		logger:     logger,
		cJoins:     cfg.Obs.Counter("service.cluster.joins"),
		cExpired:   cfg.Obs.Counter("service.cluster.nodes_expired"),
		cLeases:    cfg.Obs.Counter("service.cluster.lease_grants"),
		cLeaseDone: cfg.Obs.Counter("service.cluster.lease_done"),
	}
	c.m = newMembership(cfg.Obs, logger, func(id string) {
		leases, locs := c.leases.DropNode(id)
		if leases > 0 || locs > 0 {
			logger.Info("cluster node state released", "node", id, "leases", leases, "locations", locs)
		}
	})
	return c
}

// Start runs the heartbeat reaper until ctx ends.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		tick := time.NewTicker(c.cfg.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				if dead := c.m.ExpireDead(now, c.cfg.ExpireAfter); len(dead) > 0 {
					c.cExpired.Add(uint64(len(dead)))
				}
			}
		}
	}()
}

// Mount attaches the coordinator API under /cluster/v1 on srv.
func (c *Coordinator) Mount(srv Mux) {
	srv.Handle("POST /cluster/v1/join", c.handleJoin)
	srv.Handle("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	srv.Handle("POST /cluster/v1/leave", c.handleLeave)
	srv.Handle("POST /cluster/v1/lease", c.handleLease)
	srv.Handle("POST /cluster/v1/release", c.handleRelease)
	srv.Handle("GET /cluster/v1/locate/{key}", c.handleLocate)
	srv.Handle("GET /cluster/v1/nodes", c.handleNodes)
}

// StatusView is the coordinator's /readyz "cluster" section.
type StatusView struct {
	Role      string     `json:"role"`
	Peers     int        `json:"peers"`
	Nodes     []NodeView `json:"nodes"`
	Leases    int        `json:"leases_held"`
	Locations int        `json:"locations"`
}

// Status snapshots the fleet for /readyz.
func (c *Coordinator) Status() any {
	views := c.m.Views(time.Now())
	held, locs := c.leases.Counts()
	return StatusView{Role: "coordinator", Peers: len(views), Nodes: views, Leases: held, Locations: locs}
}

// Pick shards a key onto the live fleet (see membership.Pick).
func (c *Coordinator) Pick(key string, exclude map[string]bool) (NodeView, bool) {
	return c.m.Pick(key, exclude)
}

// AddInflight adjusts the coordinator-side dispatch count for a node.
func (c *Coordinator) AddInflight(id string, delta int) { c.m.AddInflight(id, delta) }

// MarkUnreachable drops a node after a failed dispatch. If the node is
// actually alive (a network blip), its next heartbeat 404s and it
// re-registers within one interval.
func (c *Coordinator) MarkUnreachable(id string) { c.m.Drop(id, "dispatch failed") }

// RecordLocal announces a coordinator-local result so workers can
// peer-fetch it.
func (c *Coordinator) RecordLocal(key string) {
	if c.cfg.SelfAddr != "" {
		c.leases.RecordLocation(key, "", c.cfg.SelfAddr)
	}
}

// SetSelfAddr sets the peer-reachable address after the fact — for
// callers that only learn their bound port once listening. Call before
// serving work; it is not synchronized against in-flight dispatches.
func (c *Coordinator) SetSelfAddr(addr string) { c.cfg.SelfAddr = addr }

// HeartbeatInterval reports the coordinator-granted cadence.
func (c *Coordinator) HeartbeatInterval() time.Duration { return c.cfg.HeartbeatInterval }

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	b, err := io.ReadAll(r.Body)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"decode: %s"}`, err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Node == "" || req.Addr == "" {
		http.Error(w, `{"error":"join needs node and addr"}`, http.StatusBadRequest)
		return
	}
	c.m.Join(req.Node, req.Addr, time.Now())
	c.cJoins.Inc()
	writeOK(w, joinResponse{IntervalMS: durMS(c.cfg.HeartbeatInterval)})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if !c.m.Heartbeat(req.Node, req.Inflight, time.Now()) {
		// Unknown node: the coordinator restarted (or expired it). The
		// 404 tells the worker to re-join, which rebuilds the table.
		http.Error(w, `{"error":"unknown node"}`, http.StatusNotFound)
		return
	}
	writeOK(w, joinResponse{IntervalMS: durMS(c.cfg.HeartbeatInterval)})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req leaveRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Drain {
		// Graceful: keep the node fetchable while it finishes in-flight
		// work, but never pick it again. Its heartbeats keep it from
		// expiring until it actually exits.
		c.m.SetDraining(req.Node)
	} else {
		c.m.Drop(req.Node, "leave")
	}
	writeOK(w, map[string]bool{"ok": true})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Key == "" || req.Node == "" {
		http.Error(w, `{"error":"lease needs key and node"}`, http.StatusBadRequest)
		return
	}
	resp := c.leases.Acquire(req.Key, req.Node)
	if resp.State == leaseDone && !c.locationLive(req.Key, resp) {
		// The advertised node died since; retry the acquire so the
		// caller can win the lease instead of chasing a ghost.
		resp = c.leases.Acquire(req.Key, req.Node)
	}
	switch resp.State {
	case leaseGranted:
		c.cLeases.Inc()
	case leaseDone:
		c.cLeaseDone.Inc()
	}
	writeOK(w, resp)
}

// locationLive validates a done-lease's fetch address against the
// membership table, forgetting stale entries. The coordinator's own
// locations (Holder == "") are always live.
func (c *Coordinator) locationLive(key string, resp leaseResponse) bool {
	if resp.Holder == "" {
		return true
	}
	if _, ok := c.m.Addr(resp.Holder); ok {
		return true
	}
	c.leases.Forget(key)
	return false
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	addr, _ := c.m.Addr(req.Node)
	c.leases.Release(req.Key, req.Node, req.Stored && addr != "", addr)
	writeOK(w, map[string]bool{"ok": true})
}

func (c *Coordinator) handleLocate(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	l, ok := c.leases.Locate(key)
	if !ok {
		http.Error(w, `{"error":"unknown key"}`, http.StatusNotFound)
		return
	}
	addr := l.addr
	if l.node != "" {
		// Re-resolve through membership so a restarted worker's new
		// address wins and dead nodes read as misses.
		cur, live := c.m.Addr(l.node)
		if !live {
			c.leases.Forget(key)
			http.Error(w, `{"error":"holder gone"}`, http.StatusNotFound)
			return
		}
		addr = cur
	}
	writeOK(w, locateResponse{Addr: addr})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeOK(w, c.m.Views(time.Now()))
}

// discardHandler is a slog.Handler disabled at every level.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
