package trace

import (
	"bytes"
	"io"
	"testing"

	"espnuca/internal/workload"
)

type record struct {
	core int
	in   workload.Instr
}

// readAll reads a binary trace to its end and returns the records before
// the first error, the core count and the error (io.EOF for a clean end).
func readAll(b []byte) ([]record, int, error) {
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, 0, err
	}
	var recs []record
	for {
		core, in, err := r.Read()
		if err != nil {
			return recs, r.Cores(), err
		}
		recs = append(recs, record{core, in})
	}
}

// FuzzTraceReader feeds arbitrary bytes to the binary reader and the
// replayer. Neither may panic. The replayer accepts exactly the traces
// that read cleanly to io.EOF with a record for every core, and replays
// what the reader read. A record cut short reads as io.ErrUnexpectedEOF,
// never as a clean end, both in the input and in its canonical
// re-encoding.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i, in := range sample() {
		w.Record(i%2, in)
	}
	w.Flush()
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, body []byte) {
		recs, cores, readErr := readAll(body)
		rep, repErr := NewReplayer(bytes.NewReader(body))
		counts := make([]int, cores)
		for _, r := range recs {
			counts[r.core]++
		}
		clean := readErr == io.EOF
		for _, n := range counts {
			clean = clean && n > 0
		}
		if !clean {
			if repErr == nil {
				t.Fatalf("replayer accepted a trace the reader ends with %v (records per core %v)", readErr, counts)
			}
		} else {
			if repErr != nil {
				t.Fatalf("replayer refused a clean trace: %v", repErr)
			}
			pos := make([]int, cores)
			for i, r := range recs {
				if got := rep.Source(r.core).seq[pos[r.core]]; got != r.in {
					t.Fatalf("record %d: replayed %+v, read %+v", i, got, r.in)
				}
				pos[r.core]++
			}
			for c, n := range counts {
				if rep.Len(c) != n {
					t.Fatalf("core %d: replayer holds %d records, reader read %d", c, rep.Len(c), n)
				}
			}
		}
		if readErr != io.EOF || len(recs) == 0 {
			return
		}

		// A clean read consumes every byte, so dropping the last one
		// cuts the last record short.
		if got, _, err := readAll(body[:len(body)-1]); err != io.ErrUnexpectedEOF || len(got) != len(recs)-1 {
			t.Fatalf("input cut by one byte: %d records then %v, want %d then unexpected EOF",
				len(got), err, len(recs)-1)
		}

		// Re-encode what was read: it must read back identically, and
		// every cut inside its last record must be unexpected EOF.
		var canon bytes.Buffer
		cw, err := NewWriter(&canon, cores)
		if err != nil {
			t.Fatal(err)
		}
		last := 0
		for _, r := range recs {
			cw.Flush()
			last = canon.Len()
			if err := cw.Record(r.core, r.in); err != nil {
				t.Fatal(err)
			}
		}
		cw.Flush()
		got, _, err := readAll(canon.Bytes())
		if err != io.EOF || len(got) != len(recs) {
			t.Fatalf("re-encoding read back %d records then %v, want %d then EOF", len(got), err, len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("re-encoded record %d reads %+v, want %+v", i, got[i], recs[i])
			}
		}
		for cut := last + 1; cut < canon.Len(); cut++ {
			if got, _, err := readAll(canon.Bytes()[:cut]); err != io.ErrUnexpectedEOF || len(got) != len(recs)-1 {
				t.Fatalf("re-encoding cut at %d of %d: %d records then %v, want %d then unexpected EOF",
					cut, canon.Len(), len(got), err, len(recs)-1)
			}
		}
	})
}
