package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRunSpec decodes arbitrary bytes exactly as handleSubmit does and
// normalizes the result. Whatever the input, this must not panic, and a
// spec that normalize admits must lower to a config that passes
// Validate (a run's also has a CanonicalKey), so no admitted job can
// fail validation later inside a worker. The seed corpus is under
// testdata/fuzz/FuzzRunSpec.
func FuzzRunSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.normalize() != nil {
			return
		}
		switch spec.Kind {
		case KindRun:
			rc, err := spec.Run.Config()
			if err == nil {
				err = rc.Validate()
			}
			if err == nil {
				_, err = rc.CanonicalKey()
			}
			if err != nil {
				t.Fatalf("admitted run spec %s fails after normalize: %v", body, err)
			}
		case KindMatrix:
			m, err := spec.Matrix.Matrix()
			if err == nil {
				err = m.Validate()
			}
			if err != nil {
				t.Fatalf("admitted matrix spec %s fails after normalize: %v", body, err)
			}
		default:
			t.Fatalf("normalize admitted kind %q", spec.Kind)
		}
	})
}
