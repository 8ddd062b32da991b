package experiment

import (
	"strings"
	"testing"

	"espnuca/internal/obs"
)

// goldenCanonicalKey pins the canonical hash of the default esp-nuca /
// apache configuration. It changes exactly when the configuration
// schema drifts: a field added, removed, renamed or retyped anywhere in
// RunConfig's tree, a default constant changed, or CodeVersion bumped.
// All of those invalidate every cached result, so the change must be
// deliberate — update the constant only after confirming the drift is
// intended (and bump CodeVersion when simulator behaviour changed).
const goldenCanonicalKey = "5f5b3c590fa7cf2d61655184066e714e1866ea73335f025af82ec496d9cb6a0e"

func TestCanonicalKeyGolden(t *testing.T) {
	rc := DefaultRunConfig("esp-nuca", "apache")
	key, err := rc.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenCanonicalKey {
		s, _ := rc.CanonicalString()
		t.Errorf("canonical key drifted:\n got  %s\n want %s\ncanonical form: %s\n"+
			"If the config schema change is intentional, update goldenCanonicalKey "+
			"(and bump CodeVersion if simulation behaviour changed).", key, goldenCanonicalKey, s)
	}
}

func TestCanonicalKeyStableAndSensitive(t *testing.T) {
	rc := DefaultRunConfig("esp-nuca", "apache")
	k1, err := rc.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := rc.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}

	// Every field that can change simulation output must change the key.
	perturb := map[string]func(*RunConfig){
		"seed":     func(rc *RunConfig) { rc.Seed++ },
		"arch":     func(rc *RunConfig) { rc.Arch = "shared" },
		"workload": func(rc *RunConfig) { rc.Workload = "oltp" },
		"warmup":   func(rc *RunConfig) { rc.Warmup += 1 },
		"instrs":   func(rc *RunConfig) { rc.Instructions += 1 },
		"system":   func(rc *RunConfig) { rc.System.SetsPerBank *= 2 },
		"sampler":  func(rc *RunConfig) { rc.System.Sampler.D++ },
		"ccprob":   func(rc *RunConfig) { rc.System.CCProbability = 0.31 },
		"core":     func(rc *RunConfig) { rc.Core.MSHRs++ },
		"wlLines":  func(rc *RunConfig) { rc.WorkloadL2Lines = 4096 },
		"qos":      func(rc *RunConfig) { rc.System.QoS.ClassOf[3] = 1 },
		"sampleW":  func(rc *RunConfig) { rc.SampleWindows = 8 },
	}
	for name, mod := range perturb {
		alt := DefaultRunConfig("esp-nuca", "apache")
		mod(&alt)
		k, err := alt.CanonicalKey()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("perturbing %s did not change the canonical key", name)
		}
	}
}

func TestCanonicalKeyIgnoresTelemetry(t *testing.T) {
	rc := DefaultRunConfig("esp-nuca", "apache")
	base, err := rc.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	rc.Metrics = obs.NewRegistry()
	rc.MetricsInterval = 1234
	instrumented, err := rc.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if base != instrumented {
		t.Errorf("telemetry attachment changed the key: %s vs %s", base, instrumented)
	}
}

func TestCanonicalStringSortedFields(t *testing.T) {
	rc := DefaultRunConfig("esp-nuca", "apache")
	s, err := rc.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s, "v="+CodeVersion+";RunConfig{") {
		t.Fatalf("unexpected canonical prefix: %.60s", s)
	}
	// Arch sorts before Core, Core before Seed, Seed before System —
	// declaration order must not leak into the encoding.
	order := []string{"Arch:", "Core:", "Instructions:", "Seed:", "System:", "Warmup:", "Workload:"}
	last := -1
	for _, f := range order {
		i := strings.Index(s, f)
		if i < 0 {
			t.Fatalf("canonical form missing field %q: %s", f, s)
		}
		if i < last {
			t.Errorf("field %q out of sorted order", f)
		}
		last = i
	}
	if strings.Contains(s, "Metrics") || strings.Contains(s, "SampleParallelism") {
		t.Errorf("canonical form leaked a canon:\"-\" field: %s", s)
	}
	if !strings.Contains(s, "SampleWindows:") {
		t.Errorf("canonical form must cover SampleWindows (sampled results need distinct cache keys): %s", s)
	}
}
