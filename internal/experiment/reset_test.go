package experiment

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"espnuca/internal/arch"
	"espnuca/internal/obs"
)

// TestResetEquivalence is the gate on machine reuse: a field that
// Substrate.Reset or cpu.Core.Reuse misses makes a result depend on the
// run before it, and the result cache would keep that result for good.
// For every architecture on each golden workload, a run on a new
// machine and a run on a machine reset after a different architecture,
// workload and seed must give byte-identical RunResult JSON, and the
// substrate must pass CheckInvariants right after Reset. The last row
// runs an instrumented run before a plain one.
func TestResetEquivalence(t *testing.T) {
	small := func(archName, wl string, seed uint64) RunConfig {
		rc := DefaultRunConfig(archName, wl)
		rc.Warmup, rc.Instructions = 10_000, 5_000
		rc.Seed = seed
		rc.System.Seed = seed
		return rc
	}
	type row struct{ before, after RunConfig }
	var rows []row
	names := arch.Names()
	wls := resultGoldenWorkloads
	for i, a := range names {
		for j, w := range wls {
			before := small(names[(i+1)%len(names)], wls[(j+1)%len(wls)], 2)
			before.System.CCProbability = 0.3
			after := small(a, w, 1)
			after.System.CheckTokens = true
			rows = append(rows, row{before, after})
		}
	}
	instrumented := small("esp-nuca", "apache", 2)
	instrumented.Metrics = obs.NewRegistry()
	rows = append(rows, row{instrumented, small("esp-nuca", "FT", 1)})

	jsonOf := func(m *machine, rc RunConfig) (string, error) {
		res, err := m.run(rc)
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(res)
		return string(b), err
	}
	err := forEach(0, len(rows), func(i int) error {
		r := rows[i]
		name := fmt.Sprintf("%s/%s after %s/%s", r.after.Arch, r.after.Workload, r.before.Arch, r.before.Workload)
		fresh, err := newMachine(r.after.System)
		if err != nil {
			return err
		}
		want, err := jsonOf(fresh, r.after)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m, err := newMachine(r.before.System)
		if err != nil {
			return err
		}
		if _, err := jsonOf(m, r.before); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.sub.Reset(r.after.System)
		if err := m.sub.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: after Reset: %w", name, err)
		}
		got, err := jsonOf(m, r.after)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if got != want {
			return fmt.Errorf("%s: result on a reset machine differs from a new one\nreset: %s\nnew:   %s", name, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMachinePool checks the free list's rules: a machine is reused only
// for the same hardware, at most GOMAXPROCS machines stay idle, and none
// for longer than idleMachineTTL.
func TestMachinePool(t *testing.T) {
	var p machinePool
	cfg := arch.ScaledConfig()
	m, err := p.get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.put(m)
	perRun := cfg
	perRun.Seed, perRun.CCProbability, perRun.CheckTokens = 7, 0.3, true
	if got, _ := p.get(perRun); got != m {
		t.Error("a config differing only in per-run fields did not reuse the idle machine")
	} else if got.sub.Cfg.Seed != 7 || !got.sub.Dir.Check {
		t.Error("the reused machine was not reset to the run's config")
	}
	p.put(m)
	full := arch.DefaultConfig()
	if got, _ := p.get(full); got == m {
		t.Error("a machine of other hardware was reused")
	}
	// Arm the sweep far off, so no machine can go stale before the
	// counts are checked; dropStale then re-arms it at the TTL.
	var q machinePool
	q.sweep, q.armed = time.AfterFunc(time.Hour, q.dropStale), true
	for range 2 * runtime.GOMAXPROCS(0) {
		m, err := newMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q.put(m)
	}
	q.Lock()
	if n := len(q.idle); n != runtime.GOMAXPROCS(0) {
		t.Errorf("%d idle machines, want GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
	q.idle[0].idleSince = time.Now().Add(-idleMachineTTL)
	q.Unlock()
	q.dropStale()
	q.Lock()
	n := len(q.idle)
	q.Unlock()
	if n != runtime.GOMAXPROCS(0)-1 {
		t.Errorf("%d idle machines after one went stale, want %d", n, runtime.GOMAXPROCS(0)-1)
	}
	// The sweep drops the rest once their time is up.
	for deadline := time.Now().Add(10 * idleMachineTTL); ; time.Sleep(10 * time.Millisecond) {
		q.Lock()
		n := len(q.idle)
		q.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d machines still idle %v after the last put", n, 10*idleMachineTTL)
		}
	}
}
