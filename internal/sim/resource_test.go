package sim

import "testing"

// refResource books claims the straightforward way: it drops dead
// bookings from the front on every claim and bisects the whole window for
// the first booking ending after the arrival. It is the reference the
// lazily pruned, tail-galloping Resource must match claim by claim.
type refResource struct {
	intervals []ival
	maxSeen   Cycle

	Busy, Waits Cycle
	Claims      uint64
}

func (r *refResource) ClaimFor(at, occ Cycle) Cycle {
	if occ == 0 {
		occ = 1
	}
	if at > r.maxSeen {
		r.maxSeen = at
	}
	if r.maxSeen >= pruneWindow {
		horizon := r.maxSeen - pruneWindow
		keep := 0
		for keep < len(r.intervals) && r.intervals[keep].end < horizon {
			keep++
		}
		r.intervals = r.intervals[keep:]
	}
	n := len(r.intervals)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.intervals[mid].end <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := at
	insert := n
	for i := lo; i < n; i++ {
		iv := r.intervals[i]
		if start+occ <= iv.start {
			insert = i
			break
		}
		start = iv.end
		insert = i + 1
	}
	r.intervals = append(r.intervals, ival{})
	copy(r.intervals[insert+1:], r.intervals[insert:])
	r.intervals[insert] = ival{start: start, end: start + occ}
	r.Waits += start - at
	r.Busy += occ
	r.Claims++
	return start
}

func (r *refResource) NextFree() Cycle {
	if len(r.intervals) == 0 {
		return 0
	}
	return r.intervals[len(r.intervals)-1].end
}

// claimMix describes a random claim sequence: a clock advancing by up to
// step cycles per claim, arrivals up to skew cycles behind it, and with
// probability lateP an arrival behind the pruning horizon. Mean occupancy
// stays below the mean step, so the resource is busy but not saturated
// and the live window stays bounded, as on a real link or port.
type claimMix struct {
	name   string
	claims int
	step   int
	skew   int
	maxOcc int
	lateP  float64
	jumpP  float64 // probability the clock leaps past the whole window
}

func TestResourceMatchesEagerReference(t *testing.T) {
	mixes := []claimMix{
		{name: "dense", claims: 200_000, step: 8, skew: 2_000, maxOcc: 6},
		{name: "sparse", claims: 50_000, step: 200, skew: 500, maxOcc: 64},
		{name: "behind-horizon", claims: 200_000, step: 8, skew: 3_000, maxOcc: 8, lateP: 0.02},
		{name: "leaps", claims: 100_000, step: 6, skew: 1_000, maxOcc: 12, lateP: 0.01, jumpP: 0.001},
		{name: "in-order", claims: 100_000, step: 16, maxOcc: 4},
	}
	for _, m := range mixes {
		t.Run(m.name, func(t *testing.T) {
			rng := NewRNG(uint64(len(m.name)))
			got := NewResource(1)
			want := &refResource{}
			var now Cycle = pruneWindow / 2
			maxLive, compactions := 0, 0
			for i := 0; i < m.claims; i++ {
				now += Cycle(rng.Intn(m.step + 1))
				if rng.Bool(m.jumpP) {
					now += 4 * pruneWindow
				}
				at := now
				if m.skew > 0 {
					at -= Cycle(rng.Intn(m.skew))
				}
				if rng.Bool(m.lateP) {
					at = now - pruneWindow - Cycle(rng.Intn(2*pruneWindow))
					if at > now {
						at = 0 // wrapped below cycle 0
					}
				}
				occ := Cycle(rng.Intn(m.maxOcc + 1)) // 0 exercises the occ=1 floor
				before := len(got.intervals)
				gs, ws := got.ClaimFor(at, occ), want.ClaimFor(at, occ)
				if gs != ws {
					t.Fatalf("claim %d (at %d, occ %d): start %d, reference %d", i, at, occ, gs, ws)
				}
				if len(got.intervals) <= before {
					compactions++
				}
				if got.Waits != want.Waits || got.Busy != want.Busy || got.Claims != want.Claims ||
					got.NextFree() != want.NextFree() {
					t.Fatalf("claim %d: Waits/Busy/Claims/NextFree %d/%d/%d/%d, reference %d/%d/%d/%d",
						i, got.Waits, got.Busy, got.Claims, got.NextFree(),
						want.Waits, want.Busy, want.Claims, want.NextFree())
				}
				maxLive = max(maxLive, len(want.intervals))
			}
			// The backing array must be reused rather than regrown: it
			// stays within a small multiple of the live window, which
			// takes many in-place compactions over a run this long.
			if limit := 4*maxLive + 8; cap(got.intervals) > limit {
				t.Errorf("backing array grew to %d bookings, want <= %d (max live %d)",
					cap(got.intervals), limit, maxLive)
			}
			if m.claims >= 100_000 && compactions < 10 {
				t.Errorf("only %d in-place compactions over %d claims", compactions, m.claims)
			}
			t.Logf("max live %d, cap %d, %d compactions", maxLive, cap(got.intervals), compactions)
		})
	}
}

// claimBench drives a resource with about 500 live bookings and claims
// landing near the tail of the window, the shape a busy mesh link or bank
// port sees: the clock advances ~32 cycles per claim and arrivals trail it
// by up to 64 cycles.
type claimBench struct {
	r    *Resource
	now  Cycle
	at   [4096]Cycle // offsets behind now
	step [4096]Cycle
	i    int
}

func newClaimBench() *claimBench {
	rng := NewRNG(7)
	cb := &claimBench{r: NewResource(1), now: pruneWindow}
	for i := range cb.at {
		cb.at[i] = Cycle(rng.Intn(64))
		cb.step[i] = Cycle(rng.Intn(65))
	}
	for i := 0; i < 20_000; i++ {
		cb.claim()
	}
	return cb
}

func (cb *claimBench) claim() {
	k := cb.i & (len(cb.at) - 1)
	cb.i++
	cb.now += cb.step[k]
	cb.r.ClaimFor(cb.now-cb.at[k], 4)
}

func TestResourceClaimAllocs(t *testing.T) {
	cb := newClaimBench()
	if avg := testing.AllocsPerRun(10_000, cb.claim); avg != 0 {
		t.Errorf("ClaimFor allocates %.3f times per claim in steady state, want 0", avg)
	}
}

func BenchmarkResourceClaim(b *testing.B) {
	cb := newClaimBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.claim()
	}
}
