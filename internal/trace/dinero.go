// Package trace exports the simulator's instruction streams as
// Dinero-style ASCII traces, for interoperability with classic cache
// tools. Streams are a pure function of (workload, seed, geometry), so
// the simulator itself never reads a trace back: it regenerates them.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"espnuca/internal/mem"
	"espnuca/internal/workload"
)

// Dinero-style ASCII traces: one reference per text line, a label and a
// hexadecimal byte address:
//
//	r 1a2b3c0    read
//	w 1a2b400    write
//	i 4000100    instruction fetch
//
// The format carries no core information, so an export covers one
// core's stream; the label set {r,w,i} is what classic cache tools
// (DineroIV and its descendants) read.

// WriteDinero emits an instruction sequence in the ASCII format. An
// instruction carrying both a fetch and a data access emits two lines
// (fetch first), matching how address-trace tools interleave them.
func WriteDinero(w io.Writer, seq []workload.Instr, g mem.Geometry) error {
	bw := bufio.NewWriter(w)
	for _, in := range seq {
		if in.HasFetch {
			if _, err := fmt.Fprintf(bw, "i %x\n", uint64(g.AddrOf(in.Fetch))); err != nil {
				return err
			}
		}
		if in.IsMem {
			label := "r"
			if in.Write {
				label = "w"
			}
			if _, err := fmt.Fprintf(bw, "%s %x\n", label, uint64(g.AddrOf(in.Data))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
