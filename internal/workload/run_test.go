package workload

import (
	"fmt"
	"testing"
)

// runSizes are the m values TestNextRunMatchesNext cycles through: single
// draws, sizes around the 16-instruction code line, a scheduler quantum
// and one far longer than any run of empty instructions.
var runSizes = []int{1, 2, 15, 16, 17, 256, 1 << 20}

// TestNextRunMatchesNext is the contract the cores and the run pipeline
// rest on: drawing a stream in runs, with NextRun calls of every size
// interleaved with single Next calls, yields exactly the Next sequence,
// draws exactly the instructions it reports, and leaves the stream where
// the same number of Next calls would. It covers every catalog workload
// (idle cores included) at two seeds, and a phased workload.
func TestNextRunMatchesNext(t *testing.T) {
	specs := Catalog()
	phased, err := PhasedSpec("phased", apacheProfile(), mcfProfile(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, phased)
	const n = 20_000
	for _, spec := range specs {
		for _, seed := range []uint64{1, 9} {
			ref, runs := spec.Bind(4096, 128, seed), spec.Bind(4096, 128, seed)
			for c := range ref.Streams {
				name := fmt.Sprintf("%s seed %d core %d", spec.Name, seed, c)
				want := make([]Instr, n)
				for i := range want {
					want[i] = ref.Streams[c].Next()
				}
				checkRuns(t, name, runs.Streams[c], want)
				if a, b := ref.Streams[c].Next(), runs.Streams[c].Next(); a != b {
					t.Fatalf("%s: streams diverged after %d instructions: %+v vs %+v", name, n, a, b)
				}
			}
		}
	}
}

// checkRuns draws len(want) instructions from s, alternating NextRun
// sizes and single Next calls, and compares them with want.
func checkRuns(t *testing.T, name string, s *Stream, want []Instr) {
	t.Helper()
	pos := 0
	for call := 0; pos < len(want); call++ {
		if call%5 == 4 {
			if in := s.Next(); in != want[pos] {
				t.Fatalf("%s: Next at %d = %+v, want %+v", name, pos, in, want[pos])
			}
			pos++
			continue
		}
		m := min(runSizes[call%len(runSizes)], len(want)-pos)
		empty, in, ok := s.NextRun(m)
		if empty < 0 || empty > m || (ok && empty == m) || (!ok && empty != m) {
			t.Fatalf("%s: NextRun(%d) at %d = (%d, ok %v)", name, m, pos, empty, ok)
		}
		for i := 0; i < empty; i++ {
			if w := want[pos+i]; w.HasFetch || w.IsMem {
				t.Fatalf("%s: NextRun(%d) at %d skipped non-empty instruction %d: %+v", name, m, pos, pos+i, w)
			}
		}
		pos += empty
		if ok {
			if !in.HasFetch && !in.IsMem {
				t.Fatalf("%s: NextRun(%d) at %d returned an empty instruction", name, m, pos)
			}
			if in != want[pos] {
				t.Fatalf("%s: NextRun(%d) instruction at %d = %+v, want %+v", name, m, pos, in, want[pos])
			}
			pos++
		}
	}
}
