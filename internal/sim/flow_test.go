package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func almostEq(a, b, tol float64) bool {
	if b == 0 {
		return math.Abs(a) < tol
	}
	return math.Abs(a-b)/math.Abs(b) < tol
}

func TestSingleFlowUncapped(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	var doneAt time.Duration
	r.Start(&Flow{
		Name: "f", Bytes: 100 * units.MB, FullRate: units.MBps(100),
		OnComplete: func() { doneAt = e.Now() },
	})
	e.Run()
	if !almostEq(doneAt.Seconds(), 1.0, 1e-6) {
		t.Errorf("100MB @100MB/s finished at %v, want 1s", doneAt)
	}
}

func TestSingleFlowCapped(t *testing.T) {
	// Per-stream cap below device rate: client-side limit dominates.
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	var doneAt time.Duration
	r.Start(&Flow{
		Name: "f", Bytes: 60 * units.MB, FullRate: units.MBps(480),
		Cap:        units.MBps(60),
		OnComplete: func() { doneAt = e.Now() },
	})
	e.Run()
	if !almostEq(doneAt.Seconds(), 1.0, 1e-6) {
		t.Errorf("capped flow finished at %v, want 1s", doneAt)
	}
}

func TestBreakPointBehaviour(t *testing.T) {
	// The Doppio break point: P flows each capped at T on a device with
	// bandwidth BW. For P <= b = BW/T every flow gets T; beyond b they
	// share BW.
	const (
		T  = 60.0  // MB/s per stream
		BW = 120.0 // MB/s device
	)
	for _, p := range []int{1, 2, 3, 4, 8} {
		e := NewEngine()
		r := NewFlowResource(e, "disk")
		var last time.Duration
		for i := 0; i < p; i++ {
			r.Start(&Flow{
				Bytes: 60 * units.MB, FullRate: units.MBps(BW), Cap: units.MBps(T),
				OnComplete: func() { last = e.Now() },
			})
		}
		e.Run()
		perFlow := math.Min(T, BW/float64(p))
		want := 60.0 / perFlow
		if !almostEq(last.Seconds(), want, 1e-6) {
			t.Errorf("P=%d: finished at %.3fs, want %.3fs", p, last.Seconds(), want)
		}
	}
}

func TestHeterogeneousRequestSizes(t *testing.T) {
	// One small-request flow (device would give 15 MB/s alone) and one
	// large-request flow (140 MB/s alone) share the device: each gets half
	// the device utilisation, i.e. 7.5 and 70 MB/s.
	e := NewEngine()
	r := NewFlowResource(e, "hdd")
	var smallDone, largeDone time.Duration
	r.Start(&Flow{Bytes: 15 * units.MB, FullRate: units.MBps(15),
		OnComplete: func() { smallDone = e.Now() }})
	r.Start(&Flow{Bytes: 140 * units.MB, FullRate: units.MBps(140),
		OnComplete: func() { largeDone = e.Now() }})
	e.RunUntil(0) // process starts
	// At half utilisation each: small takes 15/7.5 = 2s; large: first 2s at
	// 70 MB/s -> 140 remaining 0 at exactly 2s as well.
	e.Run()
	if !almostEq(smallDone.Seconds(), 2.0, 1e-6) {
		t.Errorf("small done at %v, want 2s", smallDone)
	}
	if !almostEq(largeDone.Seconds(), 2.0, 1e-6) {
		t.Errorf("large done at %v, want 2s", largeDone)
	}
}

func TestWaterFillingRedistribution(t *testing.T) {
	// A capped flow that cannot use its fair share leaves utilisation for
	// the others. Cap = 10 MB/s vs fair share 60: other flow should get
	// the rest of the device.
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	var fastDone time.Duration
	r.Start(&Flow{Bytes: units.GB, FullRate: units.MBps(120), Cap: units.MBps(10)})
	r.Start(&Flow{Bytes: 110 * units.MB, FullRate: units.MBps(120),
		OnComplete: func() { fastDone = e.Now() }})
	e.RunUntil(time.Hour)
	// Capped flow uses 10/120 of utilisation; the other gets 110/120 ->
	// 110 MB/s -> 1s.
	if !almostEq(fastDone.Seconds(), 1.0, 1e-6) {
		t.Errorf("uncapped flow done at %v, want 1s", fastDone)
	}
}

func TestSequentialFlows(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	var times []time.Duration
	var startNext func(n int)
	startNext = func(n int) {
		if n == 0 {
			return
		}
		r.Start(&Flow{Bytes: 50 * units.MB, FullRate: units.MBps(100),
			OnComplete: func() {
				times = append(times, e.Now())
				startNext(n - 1)
			}})
	}
	startNext(4)
	e.Run()
	if len(times) != 4 {
		t.Fatalf("completions = %d, want 4", len(times))
	}
	for i, tm := range times {
		want := 0.5 * float64(i+1)
		if !almostEq(tm.Seconds(), want, 1e-6) {
			t.Errorf("flow %d done at %v, want %.1fs", i, tm, want)
		}
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	done := false
	r.Start(&Flow{Bytes: 0, FullRate: units.MBps(100), OnComplete: func() { done = true }})
	e.Run()
	if !done {
		t.Error("zero-byte flow did not complete")
	}
}

func TestFlowStats(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	for i := 0; i < 3; i++ {
		r.Start(&Flow{Bytes: 100 * units.MB, FullRate: units.MBps(100)})
	}
	e.Run()
	s := r.Stats()
	if s.Flows != 3 {
		t.Errorf("Flows = %d, want 3", s.Flows)
	}
	if s.Bytes != 300*units.MB {
		t.Errorf("Bytes = %v, want 300MB", s.Bytes)
	}
	// Three equal flows share the device: total time 3s, busy the whole
	// time.
	if !almostEq(s.BusyTime.Seconds(), 3.0, 1e-6) {
		t.Errorf("BusyTime = %v, want 3s", s.BusyTime)
	}
}

func TestObserverSeesStartAndFinish(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	var starts, finishes int
	r.Observer = func(ev FlowEvent) {
		if ev.Started {
			starts++
		} else {
			finishes++
			if ev.Duration <= 0 {
				t.Error("finish event with non-positive duration")
			}
		}
	}
	r.Start(&Flow{Bytes: units.MB, FullRate: units.MBps(1)})
	r.Start(&Flow{Bytes: units.MB, FullRate: units.MBps(1)})
	e.Run()
	if starts != 2 || finishes != 2 {
		t.Errorf("starts=%d finishes=%d", starts, finishes)
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: regardless of flow mix, total completion time is bounded
	// below by total utilisation demand and every flow finishes.
	f := func(sizes [4]uint8, caps [4]uint8) bool {
		e := NewEngine()
		e.MaxSteps = 10000
		r := NewFlowResource(e, "disk")
		n := 0
		var totalUtilSec float64
		for i := 0; i < 4; i++ {
			if sizes[i] == 0 {
				continue
			}
			n++
			bytes := units.ByteSize(sizes[i]) * units.MB
			full := units.MBps(100)
			var cap units.Rate
			if caps[i] > 0 {
				cap = units.MBps(float64(caps[i]))
			}
			totalUtilSec += float64(bytes) / float64(full)
			r.Start(&Flow{Bytes: bytes, FullRate: full, Cap: cap})
		}
		end := e.Run()
		st := r.Stats()
		if st.Flows != n {
			return false
		}
		// Device cannot move data faster than full utilisation.
		return end.Seconds() >= totalUtilSec-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	f := &Flow{Bytes: units.MB, FullRate: units.MBps(1)}
	r.Start(f)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double Start")
		}
	}()
	r.Start(f)
}

func TestUtilSecondsAccounting(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	// A coupled flow: media would take 1s of device time, compute 3s.
	r.Start(&Flow{
		Bytes:       60 * units.MB,
		FullRate:    units.MBps(60),
		ComputeRate: units.MBps(20),
	})
	e.Run()
	st := r.Stats()
	// Wall time 4s (harmonic 15 MB/s), device service only 1s.
	if !almostEq(st.UtilSeconds, 1.0, 1e-6) {
		t.Errorf("UtilSeconds = %.3f, want 1.0", st.UtilSeconds)
	}
	if !almostEq(st.BusyTime.Seconds(), 4.0, 1e-6) {
		t.Errorf("BusyTime (occupancy) = %v, want 4s", st.BusyTime)
	}
}

// --- incremental-allocator edge cases ---

// TestZeroByteFlowAmongActiveFlows checks that a zero-byte flow dropped
// onto a busy device completes without joining (or disturbing) the
// incremental demand set.
func TestZeroByteFlowAmongActiveFlows(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	var order []string
	r.Start(&Flow{Name: "bulk", Bytes: 100 * units.MB, FullRate: units.MBps(100),
		OnComplete: func() { order = append(order, "bulk") }})
	r.Start(&Flow{Name: "empty", Bytes: 0, FullRate: units.MBps(100),
		OnComplete: func() { order = append(order, "empty") }})
	if r.Active() != 1 {
		t.Fatalf("active = %d, want 1 (zero-byte flow must not register)", r.Active())
	}
	e.Run()
	if len(order) != 2 || order[0] != "empty" || order[1] != "bulk" {
		t.Fatalf("completion order = %v", order)
	}
	if got := r.Stats().Flows; got != 1 {
		t.Errorf("completed flows = %d, want 1 (zero-byte flows are not device work)", got)
	}
}

// TestSimultaneousArrivalAndDeparture starts a new flow from inside the
// completion callback of another — arrival and departure at the same
// virtual instant. The allocator must hand the full device to the new
// flow with no residue from the finished one.
func TestSimultaneousArrivalAndDeparture(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	var second *Flow
	first := &Flow{Name: "first", Bytes: 50 * units.MB, FullRate: units.MBps(100)}
	first.OnComplete = func() {
		second = &Flow{Name: "second", Bytes: 50 * units.MB, FullRate: units.MBps(100)}
		r.Start(second)
		if got := second.Rate(); !close2(float64(got), float64(units.MBps(100)), 1e-6) {
			t.Errorf("second flow rate at arrival = %v, want full device", got)
		}
	}
	r.Start(first)
	e.Run()
	if !first.Done() || !second.Done() {
		t.Fatal("flows did not complete")
	}
	// 50 MB + 50 MB at 100 MB/s = 1s, plus the two 1ns completion ticks.
	if got := e.Now(); got < time.Second || got > time.Second+10*time.Nanosecond {
		t.Errorf("end time = %v, want ~1s", got)
	}
	if got := r.Stats().Flows; got != 2 {
		t.Errorf("completed flows = %d", got)
	}
}

// TestSameInstantCompletionsCoalesce runs identical flows that drain at
// the same instant: one completion event must finish all of them.
func TestSameInstantCompletionsCoalesce(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	done := 0
	for i := 0; i < 8; i++ {
		r.Start(&Flow{Name: "f", Bytes: 10 * units.MB, FullRate: units.MBps(100),
			OnComplete: func() { done++ }})
	}
	var completionInstants []time.Duration
	r.Observer = func(ev FlowEvent) {
		if !ev.Started {
			completionInstants = append(completionInstants, ev.Time)
		}
	}
	e.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	for _, at := range completionInstants {
		if at != completionInstants[0] {
			t.Fatalf("completions not coalesced to one instant: %v", completionInstants)
		}
	}
	// 8 × 10 MB sharing 100 MB/s: all finish together at 0.8s.
	if got := completionInstants[0]; !close2(got.Seconds(), 0.8, 1e-6) {
		t.Errorf("completion at %v, want 0.8s", got)
	}
}

// TestDemandSetOrderMaintained churns flows with distinct caps through
// the resource and checks the incremental sort invariant directly.
func TestDemandSetOrderMaintained(t *testing.T) {
	e := NewEngine()
	r := NewFlowResource(e, "disk")
	caps := []units.Rate{units.MBps(80), units.MBps(10), units.MBps(40), units.MBps(20), units.MBps(160)}
	for i, c := range caps {
		r.Start(&Flow{Name: "f", Bytes: units.ByteSize(i+1) * 5 * units.MB, FullRate: units.MBps(200), Cap: c})
		for j := 1; j < len(r.sorted); j++ {
			if r.sorted[j-1].umax > r.sorted[j].umax {
				t.Fatalf("after start %d: demand set out of order", i)
			}
		}
		if len(r.sorted) != r.Active() {
			t.Fatalf("after start %d: demand set holds %d flows, %d active", i, len(r.sorted), r.Active())
		}
	}
	e.Run()
	if len(r.sorted) != 0 || r.Active() != 0 {
		t.Fatalf("demand set not drained: %d sorted, %d active", len(r.sorted), r.Active())
	}
}

// TestCorePoolCapacityChangeMidFlow shrinks and regrows the pool while
// tasks stream through flows — the SetCapacity interaction the what-if
// sweeps depend on.
func TestCorePoolCapacityChangeMidFlow(t *testing.T) {
	e := NewEngine()
	p := NewCorePool(e, 4)
	r := NewFlowResource(e, "disk")
	finished := 0
	task := func() {
		r.Start(&Flow{Name: "t", Bytes: 10 * units.MB, FullRate: units.MBps(100),
			OnComplete: func() { finished++; p.Release() }})
	}
	for i := 0; i < 12; i++ {
		p.Acquire(task)
	}
	// Shrink while the first wave's flows are mid-transfer, then regrow
	// once the queue has mostly drained.
	e.After(100*time.Millisecond, func() { p.SetCapacity(1) })
	e.After(2*time.Second, func() { p.SetCapacity(8) })
	e.Run()
	if finished != 12 {
		t.Fatalf("finished = %d of 12", finished)
	}
	if p.InUse() != 0 || p.Queued() != 0 {
		t.Fatalf("pool not drained: inUse=%d queued=%d", p.InUse(), p.Queued())
	}
}

func close2(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol*want
}

// TestRestartedFlowMatchesFresh re-Starts a completed Flow struct in
// place, a second after it finished, next to a long-running competitor,
// and checks every completion instant against the same schedule run
// with a fresh struct per start. The resource advances all its flows
// by one shared dt, so a re-Started flow must enter at rate 0 (and not
// done) — a stale rate would be charged for the idle second and finish
// the flow early.
func TestRestartedFlowMatchesFresh(t *testing.T) {
	run := func(reuse bool) []time.Duration {
		e := NewEngine()
		r := NewFlowResource(e, "disk")
		var ends []time.Duration
		bg := &Flow{Name: "bg", Bytes: 400 * units.MB, FullRate: units.MBps(100),
			OnComplete: func() { ends = append(ends, e.Now()) }}
		r.Start(bg)
		f := &Flow{}
		var start func()
		start = func() {
			if !reuse {
				f = &Flow{}
			}
			f.Name, f.Bytes, f.FullRate, f.Cap = "f", 30*units.MB, units.MBps(100), units.MBps(60)
			f.OnComplete = func() {
				ends = append(ends, e.Now())
				if len(ends) < 3 {
					e.After(time.Second, start)
				}
			}
			r.Start(f)
			if f.Done() || f.Rate() <= 0 {
				t.Fatalf("restarted flow: done=%v rate=%v", f.Done(), f.Rate())
			}
		}
		start()
		e.Run()
		return ends
	}
	fresh, reused := run(false), run(true)
	if len(fresh) != 4 || len(reused) != 4 {
		t.Fatalf("completions: fresh %v, reused %v", fresh, reused)
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("completion %d: reused struct at %v, fresh struct at %v", i, reused[i], fresh[i])
		}
	}
}
