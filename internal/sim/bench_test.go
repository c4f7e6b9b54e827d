package sim

// Micro-benchmarks for the simulation core, gated by the bench-regression
// CI job against docs/BENCH_simcore.json (allocs/op must stay flat; see
// docs/PERF.md for how to refresh the baseline).

import (
	"testing"
	"time"

	"repro/internal/units"
)

// BenchmarkEngineEventLoop measures the schedule→fire round trip of a
// sequential event chain; the free-list makes it allocation-free apart
// from the per-event closure.
func BenchmarkEngineEventLoop(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, chain)
		}
	}
	e.After(time.Microsecond, chain)
	e.Run()
}

// BenchmarkEngineTimerCancel measures schedule+cancel, the path of
// abandoned events such as a drained flow resource's completion timer.
// While flows remain, reallocation moves that timer in place instead
// (BenchmarkEngineReschedule).
func BenchmarkEngineTimerCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Second, func() {}).Cancel()
	}
	if e.Pending() != 0 {
		b.Fatalf("pending = %d", e.Pending())
	}
}

// BenchmarkEngineReschedule measures moving a live timer in place over
// a populated heap — the flow resource's hottest pattern: every
// reallocation pushes its completion timer to the new earliest finish.
// It must stay allocation-free.
func BenchmarkEngineReschedule(b *testing.B) {
	const population = 256
	e := NewEngine()
	fn := func() {}
	for i := 0; i < population; i++ {
		e.After(time.Duration(i)*time.Millisecond, fn)
	}
	tm := e.After(time.Second, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reschedule(&tm, time.Duration(i%(2*population))*time.Millisecond, fn)
	}
	b.StopTimer()
	if e.Pending() != population+1 {
		b.Fatalf("pending = %d, want %d", e.Pending(), population+1)
	}
}

// BenchmarkFlowChurn measures a saturated device with flows arriving and
// completing continuously — the incremental water-filling hot path. The
// one allocation per op is the benchmark's own Flow: the resource moves
// its completion timer in place and binds its callback once.
func BenchmarkFlowChurn(b *testing.B) {
	const concurrent = 32
	e := NewEngine()
	r := NewFlowResource(e, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	started := 0
	var start func()
	start = func() {
		started++
		if started > b.N {
			return
		}
		r.Start(&Flow{
			Name:       "f",
			Bytes:      8 * units.MB,
			FullRate:   units.MBps(500),
			Cap:        units.MBps(60),
			OnComplete: start,
		})
	}
	for i := 0; i < concurrent; i++ {
		start()
	}
	e.Run()
}

// BenchmarkCorePoolAcquireRelease measures the FIFO core queue under
// sustained handoff.
func BenchmarkCorePoolAcquireRelease(b *testing.B) {
	e := NewEngine()
	p := NewCorePool(e, 16)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		p.Acquire(func() {
			done++
			p.Release()
		})
	}
	e.Run()
	if done != b.N {
		b.Fatalf("ran %d of %d", done, b.N)
	}
}
