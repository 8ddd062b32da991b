package resultcache

import (
	"context"
	"testing"

	"espnuca/internal/experiment"
	"espnuca/internal/obs"
)

func quickTraceRC(seed uint64) experiment.RunConfig {
	rc := experiment.DefaultRunConfig("esp-nuca", "apache")
	rc.Seed = seed
	rc.Warmup = 2_000
	rc.Instructions = 1_000
	return rc
}

// spanNames indexes a snapshot by name for assertions.
func spansByName(spans []obs.Span) map[string][]obs.Span {
	m := map[string][]obs.Span{}
	for _, sp := range spans {
		m[sp.Name] = append(m[sp.Name], sp)
	}
	return m
}

// TestRunCtxSpansColdThenHit asserts the tentpole's span contract at the
// cache layer: a cold run records cache-lookup(miss) -> run[simulate] ->
// cache-store, and the identical rerun short-circuits after
// cache-lookup(hit) with no run span.
func TestRunCtxSpansColdThenHit(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc := quickTraceRC(3)

	cold := obs.NewJobTrace("")
	res1, err := s.RunCtx(obs.ContextWithJobTrace(context.Background(), cold), rc)
	if err != nil {
		t.Fatal(err)
	}
	m := spansByName(cold.Snapshot())
	lk := m["cache-lookup"]
	if len(lk) != 1 || lk[0].Attrs["hit"] != "false" {
		t.Fatalf("cold cache-lookup spans = %+v", lk)
	}
	runs := m["run"]
	if len(runs) != 1 {
		t.Fatalf("cold run spans = %+v", runs)
	}
	if runs[0].Attrs["arch"] != "esp-nuca" || runs[0].Attrs["workload"] != "apache" || runs[0].Attrs["seed"] != "3" {
		t.Errorf("run span cell attrs = %v", runs[0].Attrs)
	}
	sim := m["simulate"]
	if len(sim) != 1 || sim[0].Parent != runs[0].ID {
		t.Fatalf("simulate spans = %+v (want one child of run %d)", sim, runs[0].ID)
	}
	if len(m["cache-store"]) != 1 {
		t.Fatalf("cache-store spans = %+v", m["cache-store"])
	}
	for _, sp := range cold.Snapshot() {
		if sp.End.IsZero() {
			t.Errorf("span %s left open", sp.Name)
		}
	}

	warm := obs.NewJobTrace("")
	res2, err := s.RunCtx(obs.ContextWithJobTrace(context.Background(), warm), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("cache hit returned a different result")
	}
	m = spansByName(warm.Snapshot())
	if lk := m["cache-lookup"]; len(lk) != 1 || lk[0].Attrs["hit"] != "true" {
		t.Fatalf("warm cache-lookup spans = %+v", lk)
	}
	if len(m["run"]) != 0 || len(m["cache-store"]) != 0 {
		t.Errorf("warm trace did not short-circuit: %v", warm.Snapshot())
	}
	if st := s.Stats(); st.Runs != 1 {
		t.Errorf("Runs = %d, want 1", st.Runs)
	}
}

// TestRunCtxTracedBitIdentical is the non-perturbation guarantee at the
// cache layer: the traced path returns the exact result of an untraced
// direct run.
func TestRunCtxTracedBitIdentical(t *testing.T) {
	rc := quickTraceRC(7)
	direct, err := experiment.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewJobTrace("")
	traced, err := s.RunCtx(obs.ContextWithJobTrace(context.Background(), tr), rc)
	if err != nil {
		t.Fatal(err)
	}
	if traced != direct {
		t.Errorf("traced run differs from direct run:\n traced %+v\n direct %+v", traced, direct)
	}
	if tr.Len() == 0 {
		t.Error("trace recorded no spans (tracing was not exercised)")
	}
}

// TestRunCtxNilStoreAndNilTrace covers the inert corners: no cache
// still records a run span, and no trace records nothing.
func TestRunCtxNilStoreAndNilTrace(t *testing.T) {
	rc := quickTraceRC(9)
	var nilStore *Store
	tr := obs.NewJobTrace("")
	if _, err := nilStore.RunCtx(obs.ContextWithJobTrace(context.Background(), tr), rc); err != nil {
		t.Fatal(err)
	}
	m := spansByName(tr.Snapshot())
	if len(m["run"]) != 1 || len(m["cache-lookup"]) != 0 {
		t.Errorf("nil-store trace = %+v", tr.Snapshot())
	}

	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCtx(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
}
