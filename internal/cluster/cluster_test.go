package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/obs"
	"espnuca/internal/resultcache"
)

// plainMux adapts http.ServeMux to the cluster Mux interface.
type plainMux struct{ m *http.ServeMux }

func (p plainMux) Handle(pattern string, h http.HandlerFunc) { p.m.HandleFunc(pattern, h) }

func smallRC(seed uint64) experiment.RunConfig {
	rc := experiment.DefaultRunConfig("shared", "apache")
	rc.Warmup, rc.Instructions, rc.Seed = 4000, 1500, seed
	return rc
}

// testCoordinator is one in-process coordinator daemon: fleet state,
// dispatcher, its own (remote-tier-free) store and an HTTP server.
type testCoordinator struct {
	coord *Coordinator
	disp  *Dispatcher
	store *resultcache.Store
	hs    *httptest.Server
}

func newTestCoordinator(t *testing.T, hb time.Duration) *testCoordinator {
	t.Helper()
	store, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{HeartbeatInterval: hb, Obs: reg})
	disp := NewDispatcher(DispatcherConfig{Coordinator: coord, Store: store, Obs: reg})
	node := NewNodeServer(NodeConfig{Store: store, Obs: reg})
	mux := http.NewServeMux()
	coord.Mount(plainMux{mux})
	node.Mount(plainMux{mux})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	coord.SetSelfAddr(hs.Listener.Addr().String())
	return &testCoordinator{coord: coord, disp: disp, store: store, hs: hs}
}

// testWorker is one in-process worker daemon: store with the remote
// tier, node endpoints and a running agent.
type testWorker struct {
	id    string
	store *resultcache.Store
	node  *NodeServer
	agent *Agent
	hs    *httptest.Server
	stop  context.CancelFunc
}

func newTestWorker(t *testing.T, tc *testCoordinator, id string) *testWorker {
	t.Helper()
	store, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	node := NewNodeServer(NodeConfig{Store: store, Obs: reg})
	mux := http.NewServeMux()
	node.Mount(plainMux{mux})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	agent := NewAgent(AgentConfig{
		Coordinator: tc.hs.URL,
		NodeID:      id,
		Advertise:   hs.Listener.Addr().String(),
		Node:        node,
		LeasePoll:   5 * time.Millisecond,
		Obs:         reg,
	})
	store.SetRemote(agent.Remote())
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go agent.Run(ctx)
	waitFor(t, time.Second, func() bool {
		v, _ := tc.coord.m.Addr(id)
		return v != ""
	})
	return &testWorker{id: id, store: store, node: node, agent: agent, hs: hs, stop: cancel}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetRemoteCacheHit: a run computed on worker A is a remote
// cache hit on worker B — byte-identical, with zero simulation work on
// B.
func TestFleetRemoteCacheHit(t *testing.T) {
	tc := newTestCoordinator(t, 50*time.Millisecond)
	wa := newTestWorker(t, tc, "wa")
	wb := newTestWorker(t, tc, "wb")

	rc := smallRC(21)
	ctx := context.Background()
	resA, err := wa.store.RunCtx(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := wa.store.Stats().Runs; got != 1 {
		t.Fatalf("worker A runs = %d, want 1", got)
	}

	resB, err := wb.store.RunCtx(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	st := wb.store.Stats()
	if st.Runs != 0 {
		t.Errorf("worker B simulated (%d runs), want pure remote hit", st.Runs)
	}
	if st.RemoteHits != 1 {
		t.Errorf("worker B remote hits = %d, want 1", st.RemoteHits)
	}
	if a, b := mustJSON(t, resA), mustJSON(t, resB); string(a) != string(b) {
		t.Error("remote-fetched result is not byte-identical to the computed one")
	}
}

// TestFleetConcurrentSingleflight: N concurrent identical submissions
// spread across two nodes yield exactly one simulation, fleet-wide.
func TestFleetConcurrentSingleflight(t *testing.T) {
	tc := newTestCoordinator(t, 50*time.Millisecond)
	wa := newTestWorker(t, tc, "wa")
	wb := newTestWorker(t, tc, "wb")

	rc := smallRC(22)
	ctx := context.Background()
	stores := []*resultcache.Store{wa.store, wb.store}
	const n = 8
	results := make([]experiment.RunResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = stores[i%2].RunCtx(ctx, rc)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := mustJSON(t, results[0])
	for i := 1; i < n; i++ {
		if string(mustJSON(t, results[i])) != string(want) {
			t.Fatalf("request %d returned a different result", i)
		}
	}
	total := wa.store.Stats().Runs + wb.store.Stats().Runs
	if total != 1 {
		t.Errorf("fleet simulated %d times for one key, want exactly 1", total)
	}
}

// newDyingWorker joins a node whose /run endpoint accepts the request,
// lingers as if simulating, then drops the TCP connection without a
// response — a worker killed mid-job.
func newDyingWorker(t *testing.T, tc *testCoordinator, id string) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/run", func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		time.Sleep(20 * time.Millisecond)
		conn.Close()
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	hc := tc.hs.Client()
	_, err := postJSON(context.Background(), hc, tc.hs.URL+"/cluster/v1/join",
		joinRequest{Node: id, Addr: hs.Listener.Addr().String()}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestDispatchRetryWithExclusion: a worker dying mid-cell is excluded
// and dropped; the cell completes on the surviving node.
func TestDispatchRetryWithExclusion(t *testing.T) {
	tc := newTestCoordinator(t, time.Hour) // reaper quiet; death found via dispatch
	live := newTestWorker(t, tc, "live")
	newDyingWorker(t, tc, "dying")

	// Find a seed whose cell rendezvous-hashes onto the dying node, so
	// the first dispatch is guaranteed to hit the failure.
	var rc experiment.RunConfig
	found := false
	for seed := uint64(1); seed < 200; seed++ {
		rc = smallRC(seed)
		key, err := rc.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := tc.coord.Pick(key, nil); ok && n.ID == "dying" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no seed hashed onto the dying node")
	}

	res, err := tc.disp.RunCell(context.Background(), rc)
	if err != nil {
		t.Fatalf("cell did not survive worker death: %v", err)
	}
	want, err := experiment.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, res)) != string(mustJSON(t, want)) {
		t.Error("retried cell result differs from direct experiment.Run")
	}
	if got := live.store.Stats().Runs; got != 1 {
		t.Errorf("surviving worker runs = %d, want 1", got)
	}
	// The dead node was dropped from membership, not just skipped.
	if _, ok := tc.coord.m.Addr("dying"); ok {
		t.Error("dying node still registered after failed dispatch")
	}
	if _, ok := tc.coord.m.Addr("live"); !ok {
		t.Error("surviving node lost from membership")
	}
}

// TestDispatchPreservesRunnerError: a genuine run error on a healthy
// worker travels back through dispatch verbatim — not retried, not
// relabeled as a cancellation. The scheduler refuses an invalid config
// at submission, so the cell is handed to the dispatcher directly.
func TestDispatchPreservesRunnerError(t *testing.T) {
	tc := newTestCoordinator(t, time.Hour)
	newTestWorker(t, tc, "w1")

	rc := experiment.DefaultRunConfig("nosuch", "apache")
	want := rc.Validate()
	if want == nil {
		t.Fatal("unknown architecture passed Validate")
	}
	_, err := tc.disp.RunCell(context.Background(), rc)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("dispatch error = %v, want the runner's %q", err, want)
	}
	if n := tc.disp.cLocal.Value(); n != 0 {
		t.Errorf("cell ran on the coordinator (%d local runs), not on the worker", n)
	}
	// A genuine error must not cost the healthy worker its membership.
	if _, ok := tc.coord.m.Addr("w1"); !ok {
		t.Error("healthy worker dropped after a runner error")
	}
}

// TestCoordinatorRestartRejoin: a restarted coordinator (fresh, empty
// state on the same address) learns its workers back through the
// heartbeat 404 -> re-join path.
func TestCoordinatorRestartRejoin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	startCoord := func(l net.Listener) (*Coordinator, *http.Server) {
		coord := NewCoordinator(CoordinatorConfig{HeartbeatInterval: 30 * time.Millisecond, Obs: obs.NewRegistry()})
		mux := http.NewServeMux()
		coord.Mount(plainMux{mux})
		srv := &http.Server{Handler: mux}
		go srv.Serve(l)
		return coord, srv
	}
	coord1, srv1 := startCoord(ln)

	reg := obs.NewRegistry()
	agent := NewAgent(AgentConfig{
		Coordinator: "http://" + addr,
		NodeID:      "w1",
		Advertise:   "127.0.0.1:1", // never dialed in this test
		Obs:         reg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go agent.Run(ctx)
	waitFor(t, 2*time.Second, func() bool {
		_, ok := coord1.m.Addr("w1")
		return ok
	})

	// Kill the coordinator and bring up a fresh one — empty membership,
	// empty leases — on the same address.
	srv1.Close()
	var ln2 net.Listener
	waitFor(t, 2*time.Second, func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	coord2, srv2 := startCoord(ln2)
	defer srv2.Close()

	waitFor(t, 3*time.Second, func() bool {
		_, ok := coord2.m.Addr("w1")
		return ok
	})
	if agent.Status().(WorkerStatus).Joined != true {
		t.Error("agent does not consider itself joined after re-registration")
	}
}

// TestPickDeterministicAndExcluding: sharding is a pure function of
// (key, membership), spreads keys across nodes, and honors exclusion.
func TestPickDeterministicAndExcluding(t *testing.T) {
	reg := obs.NewRegistry()
	m := newMembership(reg, NewCoordinator(CoordinatorConfig{Obs: reg}).logger, nil)
	now := time.Now()
	for _, id := range []string{"a", "b", "c"} {
		m.Join(id, id+":1", now)
	}
	picked := map[string]int{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		n1, ok1 := m.Pick(key, nil)
		n2, ok2 := m.Pick(key, nil)
		if !ok1 || !ok2 || n1.ID != n2.ID {
			t.Fatalf("Pick not deterministic for %s: %v/%v %v/%v", key, n1.ID, ok1, n2.ID, ok2)
		}
		picked[n1.ID]++
		if ne, ok := m.Pick(key, map[string]bool{n1.ID: true}); !ok || ne.ID == n1.ID {
			t.Fatalf("exclusion ignored for %s", key)
		}
	}
	if len(picked) != 3 {
		t.Errorf("64 keys landed on %d of 3 nodes: %v", len(picked), picked)
	}
	if _, ok := m.Pick("any", map[string]bool{"a": true, "b": true, "c": true}); ok {
		t.Error("Pick returned a node with everyone excluded")
	}
}
