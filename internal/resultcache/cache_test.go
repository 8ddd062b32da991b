package resultcache

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"espnuca/internal/experiment"
	"espnuca/internal/obs"
)

// quickRC is a fast-but-real simulation configuration (a few ms).
func quickRC(archName, wl string, seed uint64) experiment.RunConfig {
	rc := experiment.DefaultRunConfig(archName, wl)
	rc.Warmup = 5_000
	rc.Instructions = 2_000
	rc.Seed = seed
	return rc
}

func mustKey(t *testing.T, rc experiment.RunConfig) string {
	t.Helper()
	key, err := rc.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRunBitIdenticalAndZeroWorkOnHit is the subsystem's core contract:
// a cache-served result is bit-identical to a direct experiment.Run of
// the same configuration, and the second identical request performs
// zero simulation work.
func TestRunBitIdenticalAndZeroWorkOnHit(t *testing.T) {
	rc := quickRC("esp-nuca", "apache", 1)
	direct, err := experiment.Run(rc)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got1, err := s.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s.Run(rc)
	if err != nil {
		t.Fatal(err)
	}

	// JSON encodes float64 in shortest-round-trip form, so byte equality
	// of the encodings is bit equality of every field.
	want, _ := json.Marshal(direct)
	for i, got := range []experiment.RunResult{got1, got2} {
		b, _ := json.Marshal(got)
		if !bytes.Equal(b, want) {
			t.Errorf("result %d not bit-identical to direct run:\n got  %s\n want %s", i+1, b, want)
		}
	}

	st := s.Stats()
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want 1 (second submission must do zero simulation work)", st.Runs)
	}
	if st.MemHits != 1 {
		t.Errorf("MemHits = %d, want 1", st.MemHits)
	}
}

// TestDiskRoundTripBitIdentical reopens the store so the hit must come
// from the JSON object on disk, not the memory tier.
func TestDiskRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	rc := quickRC("shared", "oltp", 2)

	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s1.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(mustKey(t, rc))
	if err != nil || !ok {
		t.Fatalf("disk get: ok=%v err=%v", ok, err)
	}
	want, _ := json.Marshal(direct)
	b, _ := json.Marshal(got)
	if !bytes.Equal(b, want) {
		t.Errorf("disk round trip not bit-identical:\n got  %s\n want %s", b, want)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Runs != 0 {
		t.Errorf("stats after disk hit: %+v", st)
	}
}

// TestSingleflightSharesOneRun fires concurrent identical requests and
// asserts exactly one simulation happened.
func TestSingleflightSharesOneRun(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc := quickRC("esp-nuca", "CG", 3)
	const callers = 8
	results := make([]experiment.RunResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Run(rc)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Runs != 1 {
		t.Fatalf("Runs = %d, want 1 (singleflight must collapse identical requests)", st.Runs)
	}
	if st.Shared+st.MemHits != callers-1 {
		t.Errorf("shared=%d memHits=%d, want them to cover the other %d callers", st.Shared, st.MemHits, callers-1)
	}
	want, _ := json.Marshal(results[0])
	for i := 1; i < callers; i++ {
		if b, _ := json.Marshal(results[i]); !bytes.Equal(b, want) {
			t.Errorf("caller %d saw a different result", i)
		}
	}
}

func TestMemLRUEviction(t *testing.T) {
	s, err := Open("", Options{MemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	var res experiment.RunResult
	var rcs []experiment.RunConfig
	for i := 0; i < 3; i++ {
		rc := quickRC("shared", "apache", uint64(i+1))
		rc.Instructions += uint64(i) // distinct keys without extra sim cost
		rcs = append(rcs, rc)
		res.Seed = uint64(i + 1)
		if err := s.Put(mustKey(t, rc), rc, res); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := s.Get(mustKey(t, rcs[0])); ok {
		t.Error("oldest entry survived past capacity 2")
	}
	for i := 1; i < 3; i++ {
		if _, ok, _ := s.Get(mustKey(t, rcs[i])); !ok {
			t.Errorf("entry %d evicted despite capacity 2", i)
		}
	}
}

func TestStaleVersionReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MemEntries: -1}) // disk tier only
	if err != nil {
		t.Fatal(err)
	}
	rc := quickRC("shared", "apache", 7)
	key := mustKey(t, rc)
	if err := s.Put(key, rc, experiment.RunResult{Arch: "shared"}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); !ok {
		t.Fatal("expected disk hit")
	}
	// Rewrite the object claiming a different code version: must miss.
	e, ok, err := s.readObject(key)
	if err != nil || !ok {
		t.Fatal("readObject failed")
	}
	e.Version = "espnuca-sim-v0-stale"
	b, _ := json.Marshal(e)
	if err := os.WriteFile(s.objectPath(key), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); ok {
		t.Error("stale-version object served as a hit")
	}
}

// TestDiskEntriesCounterTracksStore pins the O(1) Stats contract: the
// disk-entry count is maintained incrementally on Put and seeded by one
// scan at Open, not recomputed by walking the object tree per call.
func TestDiskEntriesCounterTracksStore(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.DiskEntries != 0 {
		t.Fatalf("fresh store DiskEntries = %d, want 0", st.DiskEntries)
	}
	var rcs []experiment.RunConfig
	for i := 0; i < 3; i++ {
		rc := quickRC("shared", "apache", uint64(i+1))
		rcs = append(rcs, rc)
		if err := s1.Put(mustKey(t, rc), rc, experiment.RunResult{Seed: rc.Seed}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-putting an existing key must not double count.
	if err := s1.Put(mustKey(t, rcs[0]), rcs[0], experiment.RunResult{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.DiskEntries != 3 {
		t.Errorf("DiskEntries after 3 distinct puts = %d, want 3", st.DiskEntries)
	}

	// A reopened store seeds the counter from the existing objects.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskEntries != 3 {
		t.Errorf("reopened store DiskEntries = %d, want 3", st.DiskEntries)
	}
}

func TestNilStoreRunsDirectly(t *testing.T) {
	var s *Store
	rc := quickRC("shared", "apache", 1)
	res, err := s.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Error("nil store run produced no work")
	}
	if _, ok, _ := s.Get("x"); ok {
		t.Error("nil store hit")
	}
}

func TestInstrumentedRunBypassesCache(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc := quickRC("esp-nuca", "apache", 1)
	for i := 0; i < 2; i++ {
		rc.Metrics = obs.NewRegistry() // registries are one-per-run
		if _, err := s.Run(rc); err != nil {
			t.Fatal(err)
		}
		if rc.Metrics.Ticks() == 0 {
			t.Errorf("bypassed run %d did not drive the registry", i)
		}
	}
	st := s.Stats()
	if st.Bypassed != 2 || st.Stores != 0 {
		t.Errorf("instrumented runs must bypass: %+v", st)
	}
}
