package resultcache

import "testing"

// TestSampledResultsCachedDistinctly proves a sampled estimate is never
// substituted for a full run by the cache: the two configurations hash to
// different keys, and a sampled result round-trips through the disk tier
// with its error bound (RunResult.Sampled) intact.
func TestSampledResultsCachedDistinctly(t *testing.T) {
	full := quickRC("esp-nuca", "apache", 1)
	sampled := full
	sampled.SampleWindows = 4
	if mustKey(t, full) == mustKey(t, sampled) {
		t.Fatal("full and sampled configurations share a canonical key")
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := s.Run(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Sampled == nil {
		t.Fatal("sampled run through the cache lost its error bound")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the hit must come from the JSON object on disk.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	reloaded, err := s2.Run(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got.Runs != 0 || got.DiskHits != 1 {
		t.Fatalf("expected a pure disk hit, got %+v", got)
	}
	if reloaded.Sampled == nil {
		t.Fatal("reloaded sampled result lost its error bound")
	}
	if *reloaded.Sampled != *stored.Sampled {
		t.Fatalf("error bound drifted across the disk round trip:\n got  %+v\n want %+v",
			*reloaded.Sampled, *stored.Sampled)
	}

	// The full configuration must still simulate (its key saw no store).
	if _, err := s2.Run(full); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got.Runs != 1 {
		t.Fatalf("full run after sampled store: Runs = %d, want a fresh simulation", got.Runs)
	}
}
