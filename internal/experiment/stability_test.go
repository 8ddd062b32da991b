package experiment

import (
	"strings"
	"testing"
)

func TestStabilityReport(t *testing.T) {
	m := NewMatrix([]string{"gzip-4", "art-4"}, []Variant{
		V("shared", "shared"), V("esp-nuca", "esp-nuca"), V("private", "private"),
	})
	m.Seeds = []uint64{1}
	m.Warmup, m.Instructions = 20_000, 8_000
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stability(res, "esp-nuca", "shared", []string{"gzip-4", "art-4"}, []string{"private"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Variance["esp-nuca"]; !ok {
		t.Fatal("missing esp-nuca variance")
	}
	if _, ok := rep.Reduction["private"]; !ok {
		t.Fatal("missing reduction vs private")
	}
	for label, v := range rep.Variance {
		if v < 0 {
			t.Fatalf("negative variance for %s", label)
		}
	}
	if !strings.Contains(rep.String(), "esp-nuca") {
		t.Fatal("render missing architecture")
	}
	if _, err := Stability(res, "esp-nuca", "shared", nil, []string{"private"}); err == nil {
		t.Fatal("stability over zero workloads accepted")
	}
}
