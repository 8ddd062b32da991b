package arch

import (
	"fmt"
	"reflect"
	"testing"

	"espnuca/internal/noc"
)

// TestResetRestoresNewSubstrate drives every architecture's traffic
// through a substrate, resets it to a config that differs in every
// per-run field, and compares it field by field with the substrate
// NewSubstrate builds for that config. Any state Reset leaves behind
// (a counter, an LRU clock, a set role, a booking, a line record, the
// RNG) fails it, whether or not a result reads it. The second pass
// starts from an 8-entry line table, so Reset must also rebuild a table
// that grew.
func TestResetRestoresNewSubstrate(t *testing.T) {
	for _, name := range Names() {
		for _, tableSize := range []int{0, 8} {
			s := randomTraffic(t, name, 1, tableSize)
			next := s.Cfg
			next.Seed, next.CCProbability, next.CheckTokens = 9, 0.3, !next.CheckTokens
			s.Reset(next)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: after Reset: %v", name, err)
			}
			fresh, err := NewSubstrate(next)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameState(reflect.ValueOf(s), reflect.ValueOf(fresh), "Substrate", map[[2]uintptr]bool{}); err != nil {
				t.Errorf("%s (table %d): reset substrate differs from a new one: %v", name, tableSize, err)
			}
		}
	}
}

// TestSameMachine checks that only the per-run fields may differ between
// configs that share a machine.
func TestSameMachine(t *testing.T) {
	base := ScaledConfig()
	perRun := base
	perRun.Seed, perRun.CCProbability, perRun.CheckTokens = 5, 0.3, true
	if !base.SameMachine(perRun) {
		t.Error("configs differing in Seed, CCProbability and CheckTokens are not the same machine")
	}
	for _, mod := range []func(*Config){
		func(c *Config) { c.SetsPerBank *= 2 },
		func(c *Config) { c.L1.Bytes *= 2 },
		func(c *Config) { c.NoC.MemRouters = []noc.NodeID{2, 5} },
		func(c *Config) { c.DRAM.Latency++ },
		func(c *Config) { c.Sampler.Period++ },
		func(c *Config) { c.StaticPrivateWays-- },
	} {
		c := ScaledConfig()
		mod(&c)
		if base.SameMachine(c) {
			t.Errorf("%+v is the same machine as %+v", c, base)
		}
	}
}

// sameState reports the first difference between a and b, two values of
// one type, reading unexported fields too. A nil slice or pointer equals
// an allocated one that holds only zero values, so a booking ring that
// Reset cleared matches one NewSubstrate has not allocated yet. seen
// breaks the cycle through the directory's table.
func sameState(a, b reflect.Value, path string, seen map[[2]uintptr]bool) error {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if !zeroState(a) || !zeroState(b) {
				return fmt.Errorf("%s: nil on one side only", path)
			}
			return nil
		}
		k := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[k] {
			return nil
		}
		seen[k] = true
		return sameState(a.Elem(), b.Elem(), path, seen)
	case reflect.Interface:
		if a.IsNil() != b.IsNil() || !a.IsNil() && a.Elem().Type() != b.Elem().Type() {
			return fmt.Errorf("%s: interfaces hold different types", path)
		}
		if a.IsNil() {
			return nil
		}
		return sameState(a.Elem(), b.Elem(), path, seen)
	case reflect.Struct:
		for i := range a.NumField() {
			if err := sameState(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, seen); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice:
		if a.Len() != b.Len() && !(zeroState(a) && zeroState(b)) {
			return fmt.Errorf("%s: length %d, new %d", path, a.Len(), b.Len())
		}
		fallthrough
	case reflect.Array:
		for i := range min(a.Len(), b.Len()) {
			if err := sameState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); err != nil {
				return err
			}
		}
		return nil
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf("%s: %v, new %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d, new %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Errorf("%s: %d, new %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Errorf("%s: %g, new %g", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf("%s: %q, new %q", path, a.String(), b.String())
		}
	default:
		return fmt.Errorf("%s: cannot compare a %s", path, a.Kind())
	}
	return nil
}

// zeroState reports whether v is nil or holds only zero values.
func zeroState(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return v.IsNil()
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			if !zeroState(v.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range v.NumField() {
			if !zeroState(v.Field(i)) {
				return false
			}
		}
		return true
	}
	return v.IsZero()
}
