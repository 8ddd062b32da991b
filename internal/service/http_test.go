package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/resultcache"
)

// newTestServer boots a full service stack (cache + sim runner +
// scheduler + HTTP) against the real simulator with quick run sizes.
func newTestServer(t *testing.T, dir string) (*httptest.Server, *Scheduler, *resultcache.Store) {
	t.Helper()
	store, err := resultcache.Open(dir, resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := New(Config{Workers: 2, Runner: &SimRunner{Cache: store, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(sched, store))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sched.Drain(ctx)
	})
	return ts, sched, store
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func quickRunSpec(seed uint64) JobSpec {
	return JobSpec{Run: &RunSpec{
		Arch: "esp-nuca", Workload: "apache", Seed: seed,
		Warmup: 5_000, Instructions: 2_000,
	}}
}

func submitAndWait(t *testing.T, ts *httptest.Server, spec JobSpec) JobView {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var idResp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &idResp); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v JobView
		if code := getJSON(t, ts.URL+"/v1/jobs/"+idResp.ID, &v); code != http.StatusOK {
			t.Fatalf("get job: %d", code)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", idResp.ID, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServedRunBitIdenticalAndCached is the acceptance round trip: a
// served result equals a direct experiment.Run bit-for-bit, and the
// second submission of the identical job hits the cache with zero
// simulation work.
func TestServedRunBitIdenticalAndCached(t *testing.T) {
	ts, _, store := newTestServer(t, t.TempDir())

	spec := quickRunSpec(1)
	rc, err := spec.Run.Config()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiment.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)

	for round := 0; round < 2; round++ {
		v := submitAndWait(t, ts, spec)
		if v.State != StateSucceeded {
			t.Fatalf("round %d: state %s (%s)", round, v.State, v.Error)
		}
		var got experiment.RunResult
		if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &got); code != http.StatusOK {
			t.Fatalf("round %d: fetch result: %d", round, code)
		}
		b, _ := json.Marshal(got)
		if !bytes.Equal(b, want) {
			t.Errorf("round %d: served result not bit-identical to direct run:\n got  %s\n want %s", round, b, want)
		}
		// The view itself also carries the result payload.
		if v.Result == nil {
			t.Errorf("round %d: terminal view missing result", round)
		}
	}

	st := store.Stats()
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want 1: the second identical submission must be served from cache", st.Runs)
	}
	var stats resultcache.Stats
	if code := getJSON(t, ts.URL+"/v1/cache/stats", &stats); code != http.StatusOK || stats.Runs != 1 {
		t.Errorf("cache stats endpoint: code=%d stats=%+v", code, stats)
	}
}

// TestServedMatrixMatchesLocal runs a small matrix job and checks it
// equals the same matrix run locally, cell for cell.
func TestServedMatrixMatchesLocal(t *testing.T) {
	ts, _, store := newTestServer(t, t.TempDir())
	spec := JobSpec{Matrix: &MatrixSpec{
		Workloads:    []string{"apache"},
		Variants:     []VariantSpec{{Label: "shared", Arch: "shared"}, {Label: "esp-nuca", Arch: "esp-nuca"}},
		Seeds:        []uint64{1, 2},
		Warmup:       5_000,
		Instructions: 2_000,
	}}
	v := submitAndWait(t, ts, spec)
	if v.State != StateSucceeded {
		t.Fatalf("matrix job: %s (%s)", v.State, v.Error)
	}
	if v.Progress.Done != 4 || v.Progress.Total != 4 {
		t.Errorf("progress = %+v, want 4/4", v.Progress)
	}

	m, err := spec.Matrix.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	local, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(local)
	payload := func(id string) json.RawMessage {
		t.Helper()
		var raw json.RawMessage
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &raw); code != http.StatusOK {
			t.Fatalf("fetch result: %d", code)
		}
		return raw
	}
	first := payload(v.ID)
	var got experiment.Results
	if err := json.Unmarshal(first, &got); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(got)
	if !bytes.Equal(b, want) {
		t.Errorf("served matrix differs from local run:\n got  %s\n want %s", b, want)
	}
	if runs := store.Stats().Runs; runs != 4 {
		t.Fatalf("first submission ran %d simulations, want 4", runs)
	}

	// Resubmitting the same matrix is pure cache: the payload is the
	// same bytes and no cell simulates again.
	v2 := submitAndWait(t, ts, spec)
	if v2.State != StateSucceeded {
		t.Fatalf("resubmitted matrix job: %s (%s)", v2.State, v2.Error)
	}
	if again := payload(v2.ID); !bytes.Equal(again, first) {
		t.Errorf("resubmitted matrix payload differs:\n got  %s\n want %s", again, first)
	}
	if runs := store.Stats().Runs; runs != 4 {
		t.Errorf("resubmission ran simulations: runs = %d, want 4", runs)
	}
}

func TestEventsStreamJSONL(t *testing.T) {
	ts, _, _ := newTestServer(t, t.TempDir())
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickRunSpec(5))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var idResp struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &idResp)

	stream, err := http.Get(ts.URL + "/v1/jobs/" + idResp.ID + "/events?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(stream.Body)
	var last JobView
	lines := 0
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v (%s)", lines, err, sc.Text())
		}
	}
	if lines == 0 {
		t.Fatal("no events streamed")
	}
	if last.State != StateSucceeded {
		t.Errorf("final event state = %s (%s)", last.State, last.Error)
	}
	if last.Result == nil {
		t.Error("final event missing result payload")
	}
}

func TestEventsStreamSSE(t *testing.T) {
	ts, _, _ := newTestServer(t, t.TempDir())
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickRunSpec(6))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var idResp struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &idResp)

	stream, err := http.Get(ts.URL + "/v1/jobs/" + idResp.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(stream.Body)
	var sawEvent bool
	var last JobView
	for sc.Scan() {
		line := sc.Text()
		if line == "event: job" {
			sawEvent = true
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
		}
	}
	if !sawEvent || last.State != StateSucceeded {
		t.Errorf("SSE stream: sawEvent=%v last=%+v", sawEvent, last)
	}
}

func TestHTTPErrorsAndIntrospection(t *testing.T) {
	ts, _, _ := newTestServer(t, t.TempDir())

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, health)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j99999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j99999999/events", nil); code != http.StatusNotFound {
		t.Errorf("unknown job events: %d, want 404", code)
	}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "run", "run": map[string]any{"arch": "esp-nuca", "workload": "nosuch"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad workload: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"bogus_field": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d %s", resp.StatusCode, body)
	}
	// Fields the specs do not define, such as the execution knobs of
	// older clients, must get a 400 rather than a silently different run.
	for _, field := range []string{"engine_shards", "barrier_parallelism", "sample_windows"} {
		resp, body = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "run", "run": map[string]any{
			"arch": "esp-nuca", "workload": "apache", field: 2}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("run spec with %s: %d %s", field, resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "matrix", "matrix": map[string]any{
			"workloads": []string{"apache"}, "variant_set": "counterparts", field: 2}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("matrix spec with %s: %d %s", field, resp.StatusCode, body)
		}
	}

	// A finished job shows up in the list; metricsz reflects it.
	v := submitAndWait(t, ts, quickRunSpec(7))
	var list []JobView
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) == 0 {
		t.Fatalf("list: %d len=%d", code, len(list))
	}
	if list[0].ID != v.ID {
		t.Errorf("list not newest-first: %s", list[0].ID)
	}
	var metrics struct {
		Counters map[string]uint64  `json:"counters"`
		Cache    *resultcache.Stats `json:"cache"`
	}
	if code := getJSON(t, ts.URL+"/metricsz", &metrics); code != http.StatusOK {
		t.Fatalf("metricsz: %d", code)
	}
	if metrics.Counters["service.jobs_succeeded"] == 0 {
		t.Errorf("metricsz counters: %v", metrics.Counters)
	}
	if metrics.Cache == nil {
		t.Error("metricsz missing cache stats")
	}

	// Result of an unfinished/failed job conflicts. Every cell of this
	// serial matrix takes far longer than its 1 ms deadline, so the job
	// fails with ErrDeadline at the latest before its second cell.
	rid, err := tsSubmitRaw(ts, JobSpec{Matrix: &MatrixSpec{Workloads: []string{"apache"},
		Variants: []VariantSpec{{Arch: "shared"}}, Seeds: []uint64{101, 102}, Parallelism: 1}, DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJobTerminal(t, ts, rid)
	if code := getJSON(t, ts.URL+"/v1/jobs/"+rid+"/result", nil); code != http.StatusConflict {
		t.Errorf("failed job result: %d, want 409", code)
	}
}

func tsSubmitRaw(ts *httptest.Server, spec JobSpec) (string, error) {
	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var idResp struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idResp); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %d", resp.StatusCode)
	}
	return idResp.ID, nil
}

func waitJobTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v JobView
		getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
