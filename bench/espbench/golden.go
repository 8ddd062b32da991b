package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// goldenJSON maps "<workload>/<seed>" (and "served/<seed>/<catalog
// workload>" for the served cells) to the SHA-256 of the checked output.
// TestGolden -update regenerates it.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSeeds are the seeds the golden digests cover; other seeds get
// only the identity checks.
var goldenSeeds = []uint64{1, 2, 3}

var goldens = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("testdata/golden.json: %v", err))
	}
	return m
}()

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares got against the golden digest stored under key,
// if there is one.
func checkGolden(key, got string) error {
	want, ok := goldens[key]
	if ok && want != got {
		return fmt.Errorf("%s: output digest %.12s differs from golden %.12s", key, got, want)
	}
	return nil
}
