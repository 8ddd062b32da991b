package sim

import (
	"reflect"
	"testing"
)

// refResource books claims the straightforward way: it keeps a sorted
// list of booked intervals, drops dead bookings from the front on every
// claim and bisects the whole window for the first booking ending after
// the arrival. It is the reference the bitmap ring of Resource must match
// claim by claim.
type refResource struct {
	intervals []ival
	maxSeen   Cycle

	Busy, Waits Cycle
	Claims      uint64
}

type ival struct{ start, end Cycle }

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
	leadP  float64 // probability an arrival runs lead to 2*lead cycles ahead of the clock
	lead   int
	nearP  float64 // probability an arrival lands within 2*maxOcc cycles of the horizon
	ramp   bool    // the occupancy bound doubles three times, up to maxOcc
	grows  bool    // the ring must outgrow its initial size
	burst  int     // after each drawn claim, burst one-cycle claims at its arrival
}

func TestResourceMatchesEagerReference(t *testing.T) {
	mixes := []claimMix{
		{name: "dense", claims: 200_000, step: 8, skew: 2_000, maxOcc: 6},
		{name: "sparse", claims: 50_000, step: 200, skew: 500, maxOcc: 64},
		{name: "behind-horizon", claims: 200_000, step: 8, skew: 3_000, maxOcc: 8, lateP: 0.02},
		{name: "leaps", claims: 100_000, step: 6, skew: 1_000, maxOcc: 12, lateP: 0.01, jumpP: 0.001},
		{name: "in-order", claims: 100_000, step: 16, maxOcc: 4},
		// Bookings spanning many 64-cycle words, queued deep enough that
		// the live window outgrows the initial ring.
		{name: "long-occupancy", claims: 30_000, step: 6_000, skew: 20_000, maxOcc: 5_000, lateP: 0.01, grows: true},
		// Arrivals around the horizon with occupancies that step up:
		// bookings straddle the horizon, so claims behind it must find
		// the start of the one live booking below it, and each new
		// longest occupancy lowers the first cycle a live booking can
		// start.
		{name: "near-horizon", claims: 100_000, step: 800, skew: 2_000, maxOcc: 600, nearP: 0.2, ramp: true},
		// Arrivals that run further ahead of the clock than the ring is
		// long, so the base jumps past every chunk and later arrivals
		// fall behind the horizon.
		{name: "far-leads", claims: 200_000, step: 8, skew: 2_000, maxOcc: 8, leadP: 0.0005, lead: 64 * initialChunks},
		// A broadcast miss on one router out-link: a probe to each other
		// tile leaves at one cycle, so one-cycle claims collide and queue
		// behind each other, between replies booked at other cycles.
		{name: "burst", claims: 200_000, step: 24, skew: 400, maxOcc: 5, burst: 6},
	}
	for _, m := range mixes {
		t.Run(m.name, func(t *testing.T) {
			rng := NewRNG(uint64(len(m.name)))
			got := NewResource(1)
			want := &refResource{}
			var now Cycle = pruneWindow / 2
			maxLive := 0
			var burstAt Cycle
			for i := 0; i < m.claims; i++ {
				if m.burst > 0 && i%(m.burst+1) != 0 {
					check(t, i, got, want, burstAt, 1)
					continue
				}
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
				if rng.Bool(m.leadP) {
					at = now + Cycle(m.lead+rng.Intn(m.lead))
				}
				if rng.Bool(m.nearP) && now > pruneWindow+Cycle(2*m.maxOcc) {
					at = now - pruneWindow + Cycle(m.maxOcc) - Cycle(rng.Intn(3*m.maxOcc))
				}
				bound := m.maxOcc
				if m.ramp {
					bound = m.maxOcc >> (3 - 4*i/m.claims)
				}
				occ := Cycle(rng.Intn(bound + 1)) // 0 exercises the occ=1 floor
				check(t, i, got, want, at, occ)
				burstAt = at
				maxLive = max(maxLive, len(want.intervals))
			}
			// The ring is reused rather than regrown: it keeps its initial
			// size unless the live window itself outgrows it.
			if grew := len(got.ring) > initialChunks; grew != m.grows {
				t.Errorf("ring of %d chunks after %d claims, initial %d; want growth %v",
					len(got.ring), m.claims, initialChunks, m.grows)
			}
			t.Logf("max live %d, ring %d chunks", maxLive, len(got.ring))
		})
	}
}

// check makes claim i on got and want and fails unless both place it
// at one start and agree on every counter and NextFree.
func check(t *testing.T, i int, got *Resource, want *refResource, at, occ Cycle) {
	t.Helper()
	gs, ws := got.ClaimFor(at, occ), want.ClaimFor(at, occ)
	if gs != ws {
		t.Fatalf("claim %d (at %d, occ %d): start %d, reference %d", i, at, occ, gs, ws)
	}
	if got.Waits != want.Waits || got.Busy != want.Busy || got.Claims != want.Claims ||
		got.NextFree() != want.NextFree() {
		t.Fatalf("claim %d: Waits/Busy/Claims/NextFree %d/%d/%d/%d, reference %d/%d/%d/%d",
			i, got.Waits, got.Busy, got.Claims, got.NextFree(),
			want.Waits, want.Busy, want.Claims, want.NextFree())
	}
}

// TestResourceEdgeCases replays short claim sequences built to reach the
// ring's edge cases, which random mixes hit rarely, and checks each claim
// against the reference.
func TestResourceEdgeCases(t *testing.T) {
	const m = 100_000 // latest arrival; the horizon is m - pruneWindow
	const h = m - pruneWindow
	const chunkEnd = m&^63 + 64 + 63 // bit 63 of the chunk after m's
	type claim struct{ at, occ Cycle }
	cases := []struct {
		name   string
		claims []claim
	}{
		// A booking that ends exactly at the horizon is live.
		{"ends-at-horizon", []claim{{m, 1}, {h - 10, 10}, {h - 5, 1}}},
		// A booking placed over a dead one's start must hide that start
		// from the search for the booking holding horizon-1.
		{"dead-start-under-live", []claim{{0, 100}, {m, 1}, {h + 4, 4}, {m + 10, 1},
			{h + 2, 20}, {h - 6, 10}}},
		// A new longest occupancy lets a booking start below the ring's
		// base; the ring must reach down to it rather than wrap its bits
		// onto cycles a pruning window later.
		{"longer-occupancy-below-base", []claim{{m, 1}, {h - 100, 200}, {m + 16_230, 1},
			{m + 16_300, 1}}},
		// Growing the ring keeps the bookings it already holds.
		{"growth-keeps-bookings", []claim{{m, 1}, {m + 100, 1}, {m, 20_000}, {m + 100, 1}}},
		// A one-cycle claim colliding at bit 63 of its chunk goes to bit 0
		// of the next.
		{"collision-at-bit-63", []claim{{m, 1}, {chunkEnd, 1}, {chunkEnd, 1}, {chunkEnd, 1}}},
		// A gap of exactly 5 cycles across a chunk boundary takes a
		// 5-cycle claim and not a 6-cycle one.
		{"gap-straddles-chunks", []claim{{m, 1}, {chunkEnd - 9, 7}, {chunkEnd + 3, 8},
			{chunkEnd - 9, 5}, {chunkEnd - 9, 6}, {chunkEnd - 9, 1}}},
		// Claims as long as the window: one that fits at its arrival and
		// one that does not.
		{"occ-64", []claim{{m, 1}, {m + 5, 1}, {m, 64}, {m + 200, 64}, {m + 199, 64}}},
		// The first gap lies past the 64 cycles the window reads, so the
		// claim falls back to the chunk search.
		{"gap-past-window", []claim{{m, 1}, {m + 1, 70}, {m + 1, 1}, {m + 3, 2}}},
		// A longest occupancy of 16,284 cycles pulls the base down until
		// the ring's top is 100,096: the third claim ends exactly there,
		// and the fourth finds no free cycle below it.
		{"ends-at-top", []claim{{m, 1}, {m - 20_000, 16_284}, {m + 1, 95}, {m + 1, 1}, {m - 5, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := NewResource(1), &refResource{}
			for i, c := range tc.claims {
				check(t, i, got, want, c.at, c.occ)
			}
		})
	}

	// A Reset resource whose ring had grown claims as a new one.
	got, want := NewResource(1), &refResource{}
	for i, c := range []claim{{m, 1}, {m, 20_000}, {m + 100, 1}} {
		check(t, i, got, want, c.at, c.occ)
	}
	if len(got.ring) <= initialChunks {
		t.Fatalf("ring of %d chunks did not grow", len(got.ring))
	}
	got.Reset()
	if !reflect.DeepEqual(got, NewResource(1)) {
		t.Fatalf("reset resource %+v, new %+v", *got, *NewResource(1))
	}
	want = &refResource{}
	for i, c := range []claim{{m, 1}, {m + 63, 1}, {m + 63, 2}, {h - 3, 5}, {m, 40}} {
		check(t, i, got, want, c.at, c.occ)
	}
}

// claimBench drives a resource with claims landing behind the latest
// arrival, the shape a busy mesh link or bank port sees: the clock
// advances ~32 cycles per claim and each arrival trails it by a lag drawn
// from [minLag, maxLag).
type claimBench struct {
	r    *Resource
	now  Cycle
	at   [4096]Cycle // offsets behind now
	step [4096]Cycle
	i    int
}

func newClaimBench(minLag, maxLag int) *claimBench {
	rng := NewRNG(7)
	cb := &claimBench{r: NewResource(1), now: pruneWindow}
	for i := range cb.at {
		cb.at[i] = Cycle(minLag + rng.Intn(maxLag-minLag))
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
	for _, cb := range []*claimBench{newClaimBench(0, 64), newClaimBench(100, 1_000)} {
		if avg := testing.AllocsPerRun(10_000, cb.claim); avg != 0 {
			t.Errorf("ClaimFor allocates %.3f times per claim in steady state, want 0", avg)
		}
	}
}

func benchmarkClaims(b *testing.B, cb *claimBench) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.claim()
	}
}

// BenchmarkResourceClaim: arrivals trail the latest by under 64 cycles.
func BenchmarkResourceClaim(b *testing.B) { benchmarkClaims(b, newClaimBench(0, 64)) }

// BenchmarkResourceClaimLagged: arrivals trail the latest by 100 to 1,000
// cycles, the band that holds 54% of an esp-nuca/FT run's claims and 29%
// of a private/apache run's (espsim's default run length).
func BenchmarkResourceClaimLagged(b *testing.B) { benchmarkClaims(b, newClaimBench(100, 1_000)) }

// burstBench replays broadcast misses on one router out-link: the
// requester's 7 tag probes leave at one cycle and queue one behind
// another, then the 7 replies cross the link at later cycles, and the
// data reply, 5 flits, a DRAM latency after the probes. The clock
// advances up to 64 cycles between misses.
type burstBench struct {
	r    *Resource
	now  Cycle
	step [4096]Cycle // clock advance before claim i, nonzero at a miss's first probe
	off  [4096]Cycle // claim i's arrival after the clock
	occ  [4096]Cycle
	i    int
}

func newBurstBench() *burstBench {
	rng := NewRNG(13)
	bb := &burstBench{r: NewResource(1), now: pruneWindow}
	for i := 0; i < len(bb.off); i += 16 {
		bb.step[i] = Cycle(rng.Intn(65))
		for j := 0; j < 7; j++ {
			bb.occ[i+j] = 1
			bb.off[i+7+j], bb.occ[i+7+j] = Cycle(12+rng.Intn(40)), 1
		}
		bb.off[i+14], bb.occ[i+14] = Cycle(300+rng.Intn(200)), 5
		bb.off[i+15], bb.occ[i+15] = Cycle(20+rng.Intn(40)), 5
	}
	for i := 0; i < 20_000; i++ {
		bb.claim()
	}
	return bb
}

func (bb *burstBench) claim() {
	k := bb.i & (len(bb.off) - 1)
	bb.i++
	bb.now += bb.step[k]
	bb.r.ClaimFor(bb.now+bb.off[k], bb.occ[k])
}

// BenchmarkResourceClaimBurst: the claims of broadcast misses on one
// link (burstBench), per claim. Two thirds of them start later than
// they arrive, behind an earlier booking.
func BenchmarkResourceClaimBurst(b *testing.B) {
	bb := newBurstBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.claim()
	}
}
