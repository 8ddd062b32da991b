package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"espnuca/internal/arch"
)

var update = flag.Bool("update", false, "regenerate testdata/results.golden from this commit")

// resultGoldenPath holds one "arch/workload sha256" line per run of
// resultGoldenConfigs: the digest of the run's RunResult JSON.
var resultGoldenPath = filepath.Join("testdata", "results.golden")

// resultGoldenWorkloads spans the three workload kinds: a transactional
// server, the largest NAS footprint and a half-rate multiprogrammed mix.
var resultGoldenWorkloads = []string{"apache", "FT", "mcf-4"}

// resultGoldenConfigs lists every architecture on every golden workload
// at seed 1 with token conservation checked on each transaction, on a
// budget small enough for tier-1.
func resultGoldenConfigs() []RunConfig {
	var rcs []RunConfig
	for _, a := range arch.Names() {
		for _, w := range resultGoldenWorkloads {
			rc := DefaultRunConfig(a, w)
			rc.Warmup, rc.Instructions = 40_000, 20_000
			rc.System.CheckTokens = true
			rcs = append(rcs, rc)
		}
	}
	return rcs
}

// TestResultGoldens pins every architecture's results byte for byte, so
// a change meant to be behaviour-preserving is checked on all of them
// and not only on those the benchmark goldens cover. A change that is
// meant to alter results regenerates the file with -update and says so.
func TestResultGoldens(t *testing.T) {
	rcs := resultGoldenConfigs()
	res := runAll(t, 2, rcs)
	got := make(map[string]string, len(rcs))
	var b strings.Builder
	for i, rc := range rcs {
		js, err := json.Marshal(res[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		key := rc.Arch + "/" + rc.Workload
		got[key] = hex.EncodeToString(sum[:])
		fmt.Fprintf(&b, "%s %s\n", key, got[key])
	}
	if *update {
		if err := os.WriteFile(resultGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(resultGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestResultGoldens -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", resultGoldenPath, sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, want %d", resultGoldenPath, len(want), len(got))
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: result digest %s, golden %s", key, sum, want[key])
		}
	}
}
