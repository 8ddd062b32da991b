package trace

import (
	"bytes"
	"fmt"
	"io"
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

func TestRoundTripBinary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	for i, in := range want {
		if err := w.Record(i%8, in); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != uint64(len(want)) {
		t.Fatalf("Records() = %d", w.Records())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores() != 8 {
		t.Fatalf("Cores() = %d", r.Cores())
	}
	for i, exp := range want {
		core, got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if core != i%8 || got != exp {
			t.Fatalf("record %d: core %d %+v, want core %d %+v", i, core, got, i%8, exp)
		}
	}
	if _, _, err := r.Read(); err != io.EOF {
		t.Fatalf("tail read err = %v, want EOF", err)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewWriter(&buf, 300); err == nil {
		t.Error("300 cores accepted")
	}
	w, _ := NewWriter(&buf, 2)
	if err := w.Record(5, workload.Instr{}); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(strings.NewReader("ES")); err == nil {
		t.Error("short header accepted")
	}
	// Right magic, wrong version.
	if _, err := NewReader(strings.NewReader("ESPT\x07\x08")); err == nil {
		t.Error("wrong version accepted")
	}
	// Truncated record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	w.Record(0, workload.Instr{Data: 12345, Flags: workload.Flags{IsMem: true}})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated record err = %v, want unexpected EOF", err)
	}
}

// Property: any instruction survives a binary round trip exactly.
func TestRoundTripProperty(t *testing.T) {
	prop := func(fetch, data uint64, hasFetch, isMem, write bool) bool {
		in := workload.Instr{}
		if hasFetch {
			in.HasFetch, in.Fetch = true, mem.Line(fetch)
		}
		if isMem {
			in.IsMem, in.Data = true, mem.Line(data)
			in.Write = write
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, 4)
		if w.Record(3, in) != nil {
			return false
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		core, got, err := r.Read()
		return err == nil && core == 3 && got == in
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplayerRoundTrip(t *testing.T) {
	spec, _ := workload.ByName("apache")
	bound := spec.Bind(1<<14, 128, 3)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8)
	if err := Record(w, bound, 500); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cores() != 8 {
		t.Fatalf("Cores() = %d", rep.Cores())
	}
	// Replaying must equal regenerating the same streams.
	fresh := spec.Bind(1<<14, 128, 3)
	for c := 0; c < 8; c++ {
		if rep.Len(c) != 500 {
			t.Fatalf("core %d has %d records", c, rep.Len(c))
		}
		src := rep.Source(c)
		for i := 0; i < 500; i++ {
			if got, want := src.Next(), fresh.Streams[c].Next(); got != want {
				t.Fatalf("core %d instr %d: %+v != %+v", c, i, got, want)
			}
		}
	}
}

func TestReplayerWraps(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	w.Record(0, workload.Instr{Data: 1, Flags: workload.Flags{IsMem: true}})
	w.Record(0, workload.Instr{Data: 2, Flags: workload.Flags{IsMem: true}})
	w.Flush()
	rep, err := NewReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := rep.Source(0)
	seq := []mem.Line{src.Next().Data, src.Next().Data, src.Next().Data}
	if seq[0] != 1 || seq[1] != 2 || seq[2] != 1 {
		t.Fatalf("wrapped sequence %v", seq)
	}
	if src.Wraps != 1 {
		t.Fatalf("Wraps = %d", src.Wraps)
	}
}

func TestReplayerRejectsEmptyCore(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Record(0, workload.Instr{Data: 1, Flags: workload.Flags{IsMem: true}})
	w.Flush() // core 1 has nothing
	if _, err := NewReplayer(&buf); err == nil {
		t.Fatal("empty core accepted")
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
