package cpu

import (
	"espnuca/internal/arch"
	"espnuca/internal/mem"
	"espnuca/internal/workload"
)

// warmQuantum is the per-core round-robin granularity of the functional
// warmup. It mirrors the detailed scheduler's default slice so that the
// interleaving of the cores' reference streams — which determines how
// shared lines acquire their private/shared status and how the cores
// compete for L2 sets — is comparable between the two modes.
const warmQuantum = 256

// FunctionalWarm retires n instructions from each non-nil stream against
// sys without the event engine: every L1 lookup, fill, L2 transaction,
// directory token movement and adaptive-mechanism update runs through the
// same code paths as detailed simulation, but no events are scheduled and
// no core-side back-pressure (MSHR/window limits) is modelled. The caller
// must put the substrate into functional mode first
// (arch.Substrate.SetFunctional), both so the fast-forward is cheap and
// so it leaves no resource bookings behind for the detailed window that
// follows. Stream c drives core c.
func FunctionalWarm(sys arch.System, streams []*workload.Stream, n uint64) {
	sub := sys.Sub()
	for base := uint64(0); base < n; base += warmQuantum {
		q := uint64(warmQuantum)
		if base+q > n {
			q = n - base
		}
		for c, st := range streams {
			if st == nil {
				continue
			}
			for left := int(q); left > 0; left-- {
				empty, in, ok := st.NextRun(left)
				if left -= empty; !ok {
					break
				}
				if in.HasFetch && !sub.L1.Lookup(c, in.Fetch, false, true) {
					warmMiss(sys, sub, c, in.Fetch, false, true)
				}
				if in.IsMem && !sub.L1.Lookup(c, in.Data, in.Write, false) {
					warmMiss(sys, sub, c, in.Data, in.Write, false)
				}
			}
		}
	}
}

// warmMiss resolves an L1 miss functionally: the L2 transaction and the
// L1 fill (plus any displaced write-back) run at time zero.
func warmMiss(sys arch.System, sub *arch.Substrate, c int, line mem.Line, write, ifetch bool) {
	sys.Access(0, c, line, write)
	wb := sub.L1.Fill(c, line, write, ifetch)
	if wb.Valid {
		sys.WriteBack(0, c, wb.Line, wb.Dirty)
	}
}
