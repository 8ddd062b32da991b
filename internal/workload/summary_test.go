package workload

import "testing"

// TestSummarizeStreamMatchesDirectCount checks the summary against an
// independent count over the same deterministic stream.
func TestSummarizeStreamMatchesDirectCount(t *testing.T) {
	spec, ok := ByName("oltp")
	if !ok {
		t.Fatal("oltp workload missing")
	}
	const n = 20_000
	b1 := spec.Bind(1<<14, 128, 7)
	got := SummarizeStream(b1.Streams[0], n)

	b2 := spec.Bind(1<<14, 128, 7)
	var want StreamSummary
	want.Instructions = n
	for i := 0; i < n; i++ {
		in := b2.Streams[0].Next()
		if in.HasFetch {
			want.Fetches++
		}
		if in.IsMem {
			want.MemOps++
			if in.Write {
				want.Writes++
			}
		}
	}
	if got.Instructions != want.Instructions || got.MemOps != want.MemOps ||
		got.Writes != want.Writes || got.Fetches != want.Fetches {
		t.Fatalf("summary %+v disagrees with direct count %+v", got, want)
	}
	if got.DataLines == 0 || got.CodeLines == 0 {
		t.Fatalf("footprints empty: %+v", got)
	}
}
