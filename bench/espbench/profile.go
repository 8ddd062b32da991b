package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// shareGroup names a set of packages whose flat CPU time is reported
// together as <name>.cpu_share.
type shareGroup struct {
	name     string
	packages []string
}

// shareGroups are the layers CPU profiles are grouped into. Stream
// generation draws from the stats package's distributions, so the two
// count as one layer; the service layer includes the HTTP and JSON
// packages it spends its time in.
var shareGroups = []shareGroup{
	{"workload", []string{"espnuca/internal/workload", "espnuca/internal/stats"}},
	{"cpu", []string{"espnuca/internal/cpu"}},
	{"sim", []string{"espnuca/internal/sim"}},
	{"arch", []string{"espnuca/internal/arch"}},
	{"core", []string{"espnuca/internal/core"}},
	{"cache", []string{"espnuca/internal/cache"}},
	{"coherence", []string{"espnuca/internal/coherence"}},
	{"noc", []string{"espnuca/internal/noc"}},
	{"mem", []string{"espnuca/internal/mem"}},
	{"experiment", []string{"espnuca/internal/experiment"}},
	{"service", []string{"espnuca/internal/service", "net/http", "encoding/json"}},
	{"resultcache", []string{"espnuca/internal/resultcache"}},
	{"runtime", []string{"runtime", "internal/runtime"}},
}

// startCPUProfile profiles this process into path until stop is called.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuShares merges the given CPU profiles with `go tool pprof -top` and
// returns each share group's fraction of the flat samples.
func cpuShares(profiles ...string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return groupShares(nil), nil
	}
	args := append([]string{"tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat, err := parseTop(string(out))
	if err != nil {
		return nil, err
	}
	return groupShares(flat), nil
}

// parseTop sums the flat column of `go tool pprof -top` output by
// package.
func parseTop(text string) (map[string]time.Duration, error) {
	flat := map[string]time.Duration{}
	sc := bufio.NewScanner(strings.NewReader(text))
	header := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !header {
			header = strings.HasPrefix(line, "flat ")
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 {
			continue
		}
		d, err := parseFlat(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", line, err)
		}
		flat[packageOf(strings.Join(fields[5:], " "))] += d
	}
	if !header {
		return nil, fmt.Errorf("no pprof -top table in output")
	}
	return flat, sc.Err()
}

// parseFlat reads a pprof duration such as "150ms", "1.20s" or "2.5mins".
func parseFlat(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"hrs", time.Hour}, {"mins", time.Minute}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return time.Duration(f * float64(u.unit)), err
		}
	}
	return time.ParseDuration(s)
}

// packageOf returns the import path of a pprof function name such as
// "espnuca/internal/arch.(*lineMap[go.shape.int]).slot (inline)".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// groupShares turns per-package flat time into each share group's
// fraction of the total. A package belongs to a group when its path is
// one of the group's packages or lies under one.
func groupShares(flat map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range flat {
		total += d
	}
	shares := map[string]float64{}
	for _, g := range shareGroups {
		shares[g.name] = 0
	}
	if total == 0 {
		return shares
	}
	for pkg, d := range flat {
		for _, g := range shareGroups {
			if inGroup(pkg, g) {
				shares[g.name] += float64(d) / float64(total)
				break
			}
		}
	}
	return shares
}

func inGroup(pkg string, g shareGroup) bool {
	for _, p := range g.packages {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}
