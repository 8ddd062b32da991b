package trace

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"espnuca/internal/mem"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

func sample() []workload.Instr {
	return []workload.Instr{
		{},
		{Fetch: 0x200_0000, Flags: workload.Flags{HasFetch: true}},
		{Data: 0x4000_0001, Flags: workload.Flags{IsMem: true}},
		{Data: 0x4000_0002, Flags: workload.Flags{IsMem: true, Write: true}},
		{Fetch: 0x200_0010, Data: 0x800_0000, Flags: workload.Flags{HasFetch: true, IsMem: true, Write: true}},
	}
}

func TestDineroRoundTrip(t *testing.T) {
	g, _ := mem.NewGeometry(64)
	var buf bytes.Buffer
	if err := WriteDinero(&buf, sample(), g); err != nil {
		t.Fatal(err)
	}
	// The empty instruction emits nothing; the combined fetch+write
	// instruction splits into two references, fetch first.
	const want = "i 80000000\n" +
		"r 1000000040\n" +
		"w 1000000080\n" +
		"i 80000400\n" +
		"w 200000000\n"
	if got := buf.String(); got != want {
		t.Fatalf("dinero output:\n%s\nwant:\n%s", got, want)
	}
}

// Property: every reference of a random instruction sequence comes out
// as one Dinero line, in order, with its label and an address inside
// its line (combined fetch+data instructions split, fetch first).
func TestDineroPropertyReferences(t *testing.T) {
	g, _ := mem.NewGeometry(64)
	prop := func(seed uint64, n8 uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(n8%50) + 1
		var seq []workload.Instr
		for i := 0; i < n; i++ {
			var in workload.Instr
			if rng.Bool(0.3) {
				in.HasFetch, in.Fetch = true, mem.Line(rng.Intn(1<<20))
			}
			if rng.Bool(0.6) || !in.HasFetch {
				in.IsMem, in.Data = true, mem.Line(rng.Intn(1<<20))
				in.Write = rng.Bool(0.3)
			}
			seq = append(seq, in)
		}
		var buf bytes.Buffer
		if WriteDinero(&buf, seq, g) != nil {
			return false
		}
		var refs []string
		for _, in := range seq {
			if in.HasFetch {
				refs = append(refs, "i", fmt.Sprint(in.Fetch))
			}
			if in.IsMem {
				label := "r"
				if in.Write {
					label = "w"
				}
				refs = append(refs, label, fmt.Sprint(in.Data))
			}
		}
		var got []string
		for _, text := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			var label string
			var addr uint64
			if n, err := fmt.Sscanf(text, "%s %x", &label, &addr); n != 2 || err != nil {
				return false
			}
			got = append(got, label, fmt.Sprint(g.LineOf(mem.Addr(addr))))
		}
		return slices.Equal(got, refs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
