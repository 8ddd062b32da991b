package experiment

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"espnuca/internal/obs"
	"espnuca/internal/sim"
)

// goldenCanonicalKey pins the canonical hash of the default esp-nuca /
// apache configuration. It changes exactly when the configuration
// schema drifts: a field added, removed, renamed or retyped anywhere in
// RunConfig's tree, a default constant changed, or CodeVersion bumped.
// All of those invalidate every cached result, so the change must be
// deliberate — update the constant only after confirming the drift is
// intended (and bump CodeVersion when simulator behaviour changed).
const goldenCanonicalKey = "69832c36295d02d6a8d49bc4c6d20373fee83facf2bd75470547bc0651adbb5a"

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
	if strings.Contains(s, "Metrics") {
		t.Errorf("canonical form leaked a canon:\"-\" field: %s", s)
	}
}

func TestCanonValueRefusesUnencodedKinds(t *testing.T) {
	n := 3
	for name, v := range map[string]any{
		"map":     map[string]int{"a": 1},
		"pointer": &n,
		"func":    func() {},
	} {
		var b strings.Builder
		if err := canonValue(&b, reflect.ValueOf(v)); err == nil {
			t.Errorf("%s encoded as %q, want an error", name, b.String())
		}
	}
}

// canonLeaf is one scalar in RunConfig's canonical tree: a bool, integer,
// float or string field, or an element of an array or slice field.
type canonLeaf struct {
	path string
	v    reflect.Value
}

// canonLeaves lists v's canonical leaves in declaration order, skipping
// what canonStruct skips (unexported and canon:"-" fields).
func canonLeaves(v reflect.Value, path string, out []canonLeaf) []canonLeaf {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.IsExported() && f.Tag.Get("canon") != "-" {
				out = canonLeaves(v.Field(i), path+"."+f.Name, out)
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = canonLeaves(v.Index(i), path+"["+strconv.Itoa(i)+"]", out)
		}
	default:
		out = append(out, canonLeaf{path, v})
	}
	return out
}

// setLeaf stores the fuzz input of v's kind in v (integers truncate to
// the field's width) and reports whether the value changed. Floats
// compare by bit pattern, except that all NaNs are one value.
func setLeaf(v reflect.Value, u uint64, x float64, s string) bool {
	switch v.Kind() {
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(u&1 == 1)
		return v.Bool() != old
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(int64(u))
		return v.Int() != old
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		old := v.Uint()
		v.SetUint(u)
		return v.Uint() != old
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(x)
		now := v.Float()
		return math.Float64bits(now) != math.Float64bits(old) && !(math.IsNaN(now) && math.IsNaN(old))
	case reflect.String:
		old := v.String()
		v.SetString(s)
		return v.String() != old
	}
	panic("setLeaf: unexpected kind " + v.Kind().String())
}

// FuzzCanonicalKey perturbs one canonical leaf of the default esp-nuca /
// apache configuration (chosen by leaf modulo the leaf count) and checks
// the key's contract: (a) a changed config that passes Validate gets a
// different key, (b) the canon:"-" telemetry fields never change the
// key, and (c) CanonicalKey never fails on a config Validate admits.
// The seed corpus is under testdata/fuzz/FuzzCanonicalKey.
func FuzzCanonicalKey(f *testing.F) {
	baseKey, err := DefaultRunConfig("esp-nuca", "apache").CanonicalKey()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, leaf uint, u uint64, x float64, s string) {
		rc := DefaultRunConfig("esp-nuca", "apache")
		leaves := canonLeaves(reflect.ValueOf(&rc).Elem(), "RunConfig", nil)
		l := leaves[leaf%uint(len(leaves))]
		changed := setLeaf(l.v, u, x, s)
		valid := rc.Validate() == nil
		key, err := rc.CanonicalKey()
		if err != nil {
			if valid {
				t.Fatalf("%s = %v passes Validate but CanonicalKey fails: %v", l.path, l.v, err)
			}
			return
		}
		if valid && changed && key == baseKey {
			t.Fatalf("%s = %v passes Validate but keeps the default key", l.path, l.v)
		}
		rc.MetricsInterval = sim.Cycle(u)
		rc.Metrics = obs.NewRegistry()
		if k, err := rc.CanonicalKey(); err != nil || k != key {
			t.Fatalf("telemetry fields changed the key with %s = %v: %s vs %s (%v)", l.path, l.v, k, key, err)
		}
	})
}
