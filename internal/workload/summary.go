package workload

import "espnuca/internal/mem"

// StreamSummary describes the memory behaviour of a stream prefix: the
// access mix and the touched footprints. The workload models were
// calibrated against the paper's descriptions using these numbers.
type StreamSummary struct {
	Instructions uint64
	MemOps       uint64
	Writes       uint64
	Fetches      uint64
	// DataLines and CodeLines are the distinct 64 B lines touched.
	DataLines int
	CodeLines int
}

// SummarizeStream drives n instructions of st and returns their access
// mix and footprints.
func SummarizeStream(st *Stream, n int) StreamSummary {
	sum := StreamSummary{Instructions: uint64(n)}
	data := make(map[mem.Line]struct{})
	code := make(map[mem.Line]struct{})
	for i := 0; i < n; i++ {
		in := st.Next()
		if in.HasFetch {
			sum.Fetches++
			code[in.Fetch] = struct{}{}
		}
		if in.IsMem {
			sum.MemOps++
			if in.Write {
				sum.Writes++
			}
			data[in.Data] = struct{}{}
		}
	}
	sum.DataLines, sum.CodeLines = len(data), len(code)
	return sum
}
