package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// CodeVersion names the simulator's behavioural revision. It is folded
// into every CanonicalKey, so cached results are invalidated wholesale
// whenever a change makes simulations produce different numbers for the
// same configuration. Bump it on any such change; refactors that keep
// outputs bit-identical must leave it alone.
const CodeVersion = "espnuca-sim-v1"

// CanonicalString renders the run configuration as a deterministic,
// schema-sensitive text form: struct fields are emitted sorted by name
// (so a pure declaration reorder cannot change the key), slices and
// arrays list their elements in order, and every leaf is formatted by an
// exact, locale-free rule.
// Fields tagged `canon:"-"` — the telemetry attachments, which are
// proven not to perturb results — are excluded. The form embeds
// CodeVersion, so a behavioural revision of the simulator changes every
// key. Adding, removing, renaming or retyping a config field changes
// the output, which the golden test pins.
func (rc RunConfig) CanonicalString() (string, error) {
	var b strings.Builder
	b.WriteString("v=")
	b.WriteString(CodeVersion)
	b.WriteByte(';')
	if err := canonValue(&b, reflect.ValueOf(rc)); err != nil {
		return "", err
	}
	return b.String(), nil
}

// CanonicalKey returns the hex SHA-256 of CanonicalString: a stable
// content address for "the result of simulating this configuration
// under this code version". Two RunConfigs share a key exactly when a
// conforming simulator must produce bit-identical RunResults for them.
func (rc RunConfig) CanonicalKey() (string, error) {
	s, err := rc.CanonicalString()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:]), nil
}

// canonValue writes one value in the canonical form. Only the kinds
// that appear in a configuration tree are supported; anything else
// (maps, pointers, funcs, chans, interfaces) is an error rather than an
// encoding nobody reviewed.
func canonValue(b *strings.Builder, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		// 'x' (hex float) is exact: every distinct bit pattern other than
		// NaNs gets a distinct, platform-independent spelling.
		b.WriteString(strconv.FormatFloat(v.Float(), 'x', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Struct:
		return canonStruct(b, v)
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := canonValue(b, v.Index(i)); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	default:
		return fmt.Errorf("experiment: cannot canonicalize %s (kind %s)", v.Type(), v.Kind())
	}
	return nil
}

func canonStruct(b *strings.Builder, v reflect.Value) error {
	t := v.Type()
	type fld struct {
		name string
		i    int
	}
	fields := make([]fld, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("canon") == "-" {
			continue
		}
		fields = append(fields, fld{f.Name, i})
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	// The struct type name participates so renaming a config type is
	// schema drift too.
	b.WriteString(t.Name())
	b.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.name)
		b.WriteByte(':')
		if err := canonValue(b, v.Field(f.i)); err != nil {
			return err
		}
	}
	b.WriteByte('}')
	return nil
}
