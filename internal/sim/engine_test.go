package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersByCycle(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 10) })
	e.At(5, func() { got = append(got, 5) })
	e.At(7, func() { got = append(got, 7) })
	e.Run(0)
	want := []int{5, 7, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestEngineFIFOWithinCycle(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(3, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events reordered: got[%d] = %d", i, got[i])
		}
	}
}

func TestEngineScheduleRelative(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.At(100, func() {
		e.Schedule(25, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 125 {
		t.Fatalf("relative schedule fired at %d, want 125", at)
	}
}

func TestEngineZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(4, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "c") })
	})
	e.At(4, func() { order = append(order, "b") })
	e.Run(0)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestEngineNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	e.At(1, nil)
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.Run(15)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("Now() = %d, want 15 (clamped to limit)", e.Now())
	}
	e.Run(0)
	if fired != 2 {
		t.Fatalf("fired after resume = %d, want 2", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 after Stop", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Cycle(i), func() { count++ })
	}
	e.RunUntil(0, func() bool { return count >= 4 })
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
}

func TestEngineDispatchedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.At(Cycle(i), func() {})
	}
	e.Run(0)
	if e.Dispatched != 17 {
		t.Fatalf("Dispatched = %d, want 17", e.Dispatched)
	}
}

// Property: for any set of scheduling offsets, the engine dispatches events
// in non-decreasing cycle order and the clock never goes backwards.
func TestEngineMonotonicClockProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		last := Cycle(0)
		ok := true
		for _, d := range delays {
			d := Cycle(d)
			e.At(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(0)
		return ok && e.Dispatched == uint64(len(delays))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineReset(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 10; i++ {
		e.At(Cycle(i+1), func() { fired++ })
	}
	e.Run(0)
	e.At(100, func() { fired++ }) // left pending across Reset
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Dispatched != 0 {
		t.Fatalf("after Reset: now=%d pending=%d dispatched=%d", e.Now(), e.Pending(), e.Dispatched)
	}
	// A reset engine behaves exactly like a fresh one.
	var got []int
	e.At(10, func() { got = append(got, 10) })
	e.At(5, func() { got = append(got, 5) })
	e.Run(0)
	if len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Fatalf("post-Reset order = %v, want [5 10]", got)
	}
	if fired != 10 {
		t.Fatalf("fired = %d, want 10 (pending event must be dropped)", fired)
	}
}

// Property: the hand-rolled heap dispatches any mix of deferred events in
// exactly (cycle, sequence) order, matching a stable sort of the schedule.
func TestEngineHeapOrderProperty(t *testing.T) {
	prop := func(delays []uint8) bool {
		e := NewEngine()
		type stamp struct {
			at  Cycle
			seq int
		}
		var got []stamp
		for i, d := range delays {
			at, i := Cycle(d), i
			e.At(at, func() { got = append(got, stamp{at, i}) })
		}
		e.Run(0)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource(4)
	if got := r.Claim(10); got != 10 {
		t.Fatalf("first claim starts at %d, want 10", got)
	}
	if got := r.Claim(10); got != 14 {
		t.Fatalf("second claim starts at %d, want 14", got)
	}
	if got := r.Claim(30); got != 30 {
		t.Fatalf("idle claim starts at %d, want 30", got)
	}
	if r.Waits != 4 {
		t.Fatalf("Waits = %d, want 4", r.Waits)
	}
	if r.Claims != 3 {
		t.Fatalf("Claims = %d, want 3", r.Claims)
	}
}

func TestResourceClaimFor(t *testing.T) {
	r := NewResource(1)
	if got := r.ClaimFor(0, 5); got != 0 {
		t.Fatalf("ClaimFor start = %d, want 0", got)
	}
	if got := r.Claim(2); got != 5 {
		t.Fatalf("claim after 5-cycle occupancy starts at %d, want 5", got)
	}
}

// Property: a resource never starts two operations within its initiation
// interval, regardless of arrival pattern.
func TestResourceSpacingProperty(t *testing.T) {
	prop := func(arrivals []uint16, interval uint8) bool {
		iv := Cycle(interval%7 + 1)
		r := NewResource(iv)
		at := Cycle(0)
		var prev Cycle
		first := true
		for _, a := range arrivals {
			at += Cycle(a % 5)
			start := r.Claim(at)
			if start < at {
				return false
			}
			if !first && start < prev+iv {
				return false
			}
			prev, first = start, false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of range", f)
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.28 || got > 0.32 {
		t.Fatalf("Bool(0.3) frequency = %g, want ~0.3", got)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide %d/100 times", same)
	}
}

func TestEnginePendingAndStep(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue reported work")
	}
	e.At(5, func() {})
	e.At(9, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	if !e.Step() || e.Now() != 5 || e.Pending() != 1 {
		t.Fatalf("after Step: now=%d pending=%d", e.Now(), e.Pending())
	}
}

func TestResourceNextFreeAndUtilization(t *testing.T) {
	r := NewResource(4)
	if r.NextFree() != 0 {
		t.Fatalf("idle NextFree = %d", r.NextFree())
	}
	r.Claim(10)
	if r.NextFree() != 14 {
		t.Fatalf("NextFree = %d, want 14", r.NextFree())
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %g", u)
	}
	if u := r.Utilization(8); u > 1 || u <= 0 {
		t.Fatalf("Utilization(8) = %g", u)
	}
}

func TestResourceBookingFillsGaps(t *testing.T) {
	r := NewResource(1)
	// Claim far in the future, then a claim in the past books the gap —
	// the order-tolerance the synchronous transaction model needs.
	far := r.ClaimFor(1000, 5)
	near := r.ClaimFor(10, 5)
	if far != 1000 {
		t.Fatalf("future claim at %d", far)
	}
	if near != 10 {
		t.Fatalf("past claim displaced to %d, want 10 (gap booking)", near)
	}
	// A claim overlapping the future booking queues behind it.
	after := r.ClaimFor(998, 5)
	if after < 1005 {
		t.Fatalf("overlapping claim at %d, want >= 1005", after)
	}
}

// TestEngineStoppedAccessor covers the Stop/Stopped contract: Stop inside
// an event must halt RunUntil before cond is re-evaluated, and the
// stopped state must remain observable after return (distinguishing "an
// event stopped me" from "the queue drained" or "cond held").
func TestEngineStoppedAccessor(t *testing.T) {
	e := NewEngine()
	condCalls := 0
	fired := 0
	e.At(5, func() { fired++; e.Stop() })
	e.At(6, func() { fired++ }) // must not run: Stop wins first

	now := e.RunUntil(0, func() bool { condCalls++; return false })
	if now != 5 || fired != 1 {
		t.Fatalf("RunUntil stopped at cycle %d after %d events, want cycle 5 after 1", now, fired)
	}
	if !e.Stopped() {
		t.Fatalf("Stopped() = false after Stop halted RunUntil")
	}
	// RunUntil checks stopped before cond on every iteration: cond ran
	// once before the event at cycle 5 executed, and must not have run
	// again after Stop.
	if condCalls != 1 {
		t.Fatalf("cond evaluated %d times, want exactly 1 (before the stopping event only)", condCalls)
	}

	// A fresh Run resets the state and resumes with the remaining event.
	now = e.Run(0)
	if now != 6 || fired != 2 {
		t.Fatalf("resumed Run reached cycle %d after %d total events, want 6 after 2", now, fired)
	}
	if e.Stopped() {
		t.Fatalf("Stopped() = true after a Run that drained the queue")
	}
}

func TestEngineStoppedFalseOnDrainAndCond(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.Run(0)
	if e.Stopped() {
		t.Fatalf("Stopped() = true after queue drain")
	}
	e.At(2, func() {})
	e.RunUntil(0, func() bool { return true })
	if e.Stopped() {
		t.Fatalf("Stopped() = true after cond-terminated RunUntil")
	}
}
