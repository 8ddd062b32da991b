package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"espnuca/internal/experiment"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from this commit")

// goldenKeys lists every key testdata/golden.json must hold.
func goldenKeys() []string {
	var keys []string
	for _, seed := range goldenSeeds {
		for _, w := range []simWorkload{figure8, ftLong, mcfHalfrate} {
			keys = append(keys, fmt.Sprintf("%s/%d", w.name, seed))
		}
		for _, cell := range servedDefault.cells {
			keys = append(keys, fmt.Sprintf("%s/%d/%s", servedDefault.name, seed, cell))
		}
	}
	return keys
}

// servedDigest is the digest of a served cell's payload: the JSON of its
// experiment.Run result.
func servedDigest(cell string, seed uint64) (string, error) {
	rc, err := servedDefault.spec(cell, seed).Config()
	if err != nil {
		return "", err
	}
	res, err := experiment.Run(rc)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	return digest(b), err
}

// TestGolden checks testdata/golden.json covers every checked output and
// spot-checks one served cell against a fresh simulation; the benchmark
// checks every other digest on each op it runs. With -update it
// recomputes them all (about a minute).
func TestGolden(t *testing.T) {
	if *update {
		regenerateGoldens(t)
		return
	}
	for _, k := range goldenKeys() {
		if _, ok := goldens[k]; !ok {
			t.Errorf("testdata/golden.json lacks %s", k)
		}
	}
	if len(goldens) != len(goldenKeys()) {
		t.Errorf("testdata/golden.json has %d digests, want %d", len(goldens), len(goldenKeys()))
	}
	got, err := servedDigest("apache", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden("served/1/apache", got); err != nil {
		t.Error(err)
	}
}

func regenerateGoldens(t *testing.T) {
	o := options{nproc: 2}
	m := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.nproc)
	set := func(key string, f func() (string, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			d, err := f()
			if err != nil {
				t.Errorf("%s: %v", key, err)
				return
			}
			mu.Lock()
			m[key] = d
			mu.Unlock()
		}()
	}
	for _, seed := range goldenSeeds {
		for _, w := range []simWorkload{figure8, ftLong, mcfHalfrate} {
			o := o
			o.seed = seed
			set(fmt.Sprintf("%s/%d", w.name, seed), func() (string, error) {
				out, err := w.op(o, experiment.Run)
				if err == nil {
					err = out.shape
				}
				return out.digest, err
			})
		}
		for _, cell := range servedDefault.cells {
			set(fmt.Sprintf("%s/%d/%s", servedDefault.name, seed, cell), func() (string, error) { return servedDigest(cell, seed) })
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
