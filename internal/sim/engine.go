// Package sim provides a small discrete-event simulation engine plus the
// flow-level shared-bandwidth resource used to model disks and network
// links.
//
// The engine is deliberately minimal: a virtual clock and a time-ordered
// event heap. Higher-level abstractions (CorePool for executor cores,
// FlowResource for bandwidth water-filling) are built on top, and the
// Spark cluster simulator in internal/spark composes those.
//
// The event loop is allocation-free in steady state: fired and cancelled
// events return to a free-list and are recycled by later At/After calls,
// so a simulation's event-struct footprint is its peak concurrency, not
// its event count. Timers carry a generation number so a stale Timer for
// a recycled event is a safe no-op. A timer that is repeatedly pushed
// back — a FlowResource's next-completion timer, moved on every
// reallocation — is rescheduled in place (Engine.Reschedule) rather than
// cancelled and replaced; the firing order is the same either way.
package sim

import (
	"fmt"
	"time"
)

// event is a scheduled callback.
type event struct {
	at time.Duration
	// phase orders events within one instant: normal events (phase 0)
	// run before late ones (phase 1, scheduled via AtLate). Late events
	// are end-of-instant finalizers — they observe every normal event's
	// effects at their timestamp, which is what makes the Spark
	// runner's stage-completion bookkeeping independent of event
	// arrival order (see internal/spark).
	phase uint8
	seq   uint64 // tie-breaker: FIFO among same-time, same-phase events
	fn    func()
	// gen increments every time the event struct is recycled through the
	// free-list; Timers snapshot it so cancelling a stale handle cannot
	// touch an unrelated reused event.
	gen   uint64
	index int // heap index, -1 when popped
}

// eventHeap is a 4-ary min-heap of pending events ordered by
// (at, phase, seq). Four children per node halve the tree depth of a
// binary heap, and the typed methods compare event fields directly
// instead of going through container/heap's interface calls. Every
// event records its slot in index, which makes Cancel and Reschedule
// O(log n) in place.
type eventHeap []*event

// less reports whether a fires before b. (at, phase, seq) is a total
// order — seq is unique per scheduling — so the pop order is fully
// determined whatever the heap's internal layout.
func (eventHeap) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.seq < b.seq
}

// up sifts the event at slot i toward the root.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !h.less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// minChild returns the slot of the earliest of slot i's children, or
// -1 when slot i is a leaf.
func (h eventHeap) minChild(i int) int {
	c := 4*i + 1
	if c >= len(h) {
		return -1
	}
	m, end := c, min(c+4, len(h))
	for j := c + 1; j < end; j++ {
		if h.less(h[j], h[m]) {
			m = j
		}
	}
	return m
}

// down sifts the event at slot i toward the leaves and reports whether
// it moved.
func (h eventHeap) down(i int) bool {
	ev := h[i]
	i0 := i
	for {
		m := h.minChild(i)
		if m < 0 || !h.less(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

// push inserts an event.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes the earliest event. The root's hole sinks along the
// smaller children to a leaf, and the last event refills it there and
// sifts up. That skips down's per-level compare against the last
// event, which usually belongs near the bottom anyway.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	top, last := old[0], old[n]
	old[n] = nil
	rest := old[:n]
	*h = rest
	top.index = -1
	if n == 0 {
		return top
	}
	i := 0
	for m := rest.minChild(0); m >= 0; m = rest.minChild(i) {
		rest[i] = rest[m]
		rest[i].index = i
		i = m
	}
	rest[i] = last
	rest.up(i)
	return top
}

// remove deletes the event at slot i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	ev.index = -1
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all callbacks run on the goroutine that calls Run.
type Engine struct {
	now     time.Duration
	heap    eventHeap
	free    []*event // recycled event structs
	seq     uint64
	running bool
	steps   uint64
	// MaxSteps bounds the number of processed events; 0 means unlimited.
	// It exists as a runaway-loop backstop for property tests.
	MaxSteps uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// NewEngineSized returns an engine whose event heap and free-list are
// pre-sized for roughly hint concurrently pending events, avoiding
// re-growth in large simulations. The hint is only a capacity; the
// engine grows past it transparently.
func NewEngineSized(hint int) *Engine {
	if hint < 0 {
		hint = 0
	}
	return &Engine{
		heap: make(eventHeap, 0, hint),
		free: make([]*event, 0, hint),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps reports how many events have been processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Timer identifies a scheduled event so it can be cancelled or moved
// (Engine.Reschedule). The zero Timer is valid and cancels nothing.
type Timer struct {
	ev  *event
	gen uint64
	eng *Engine
}

// Cancel prevents the event from firing and immediately returns its
// storage to the engine's free-list. Cancelling an already-fired,
// already-cancelled or zero timer is a no-op.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return // already fired (and possibly recycled), or zero Timer
	}
	if ev.index >= 0 {
		t.eng.heap.remove(ev.index)
	}
	t.eng.recycle(ev)
}

// recycle wipes an event and pushes it onto the free-list. Bumping gen
// invalidates every outstanding Timer for the old incarnation.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.index = -1
	e.free = append(e.free, ev)
}

// alloc returns a fresh or recycled event struct.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it is always a logic error in a DES.
func (e *Engine) At(t time.Duration, fn func()) Timer { return e.schedule(t, 0, fn) }

// AtLate schedules fn at absolute virtual time t in the late phase:
// after every normal event with the same timestamp, however those
// events were enqueued. Among themselves, late events keep FIFO order.
// Use it for end-of-instant finalizers that must see a settled state.
func (e *Engine) AtLate(t time.Duration, fn func()) Timer { return e.schedule(t, 1, fn) }

// schedule enqueues fn at (t, phase) with the next sequence number.
func (e *Engine) schedule(t time.Duration, phase uint8, fn func()) Timer {
	e.checkNotPast(t)
	ev := e.alloc()
	ev.at = t
	ev.phase = phase
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.heap.push(ev)
	return Timer{ev: ev, gen: ev.gen, eng: e}
}

func (e *Engine) checkNotPast(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
}

// Reschedule moves *t's pending event to absolute time at with callback
// fn, in the normal phase, and updates *t to the moved event. A stale
// or zero *t (fired, cancelled) is simply replaced by At(at, fn).
//
// The moved event takes a fresh sequence number and a new generation,
// so it fires — and every other event fires — exactly as after
// t.Cancel() followed by *t = At(at, fn): the pop order is fixed by the
// total order (at, phase, seq), and Cancel+At would consume the same
// one sequence number. Copies of the old Timer go stale either way.
// What Reschedule saves is the heap removal, the free-list round trip
// and the re-insertion: the event sifts from its current slot.
func (e *Engine) Reschedule(t *Timer, at time.Duration, fn func()) {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		*t = e.At(at, fn)
		return
	}
	e.checkNotPast(at)
	ev.at = at
	ev.phase = 0
	ev.seq = e.seq
	ev.fn = fn
	ev.gen++
	e.seq++
	t.gen = ev.gen
	if !e.heap.down(ev.index) {
		e.heap.up(ev.index)
	}
}

// After schedules fn to run d after the current time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Run processes events until the heap is empty (or MaxSteps is hit).
// It returns the final virtual time.
func (e *Engine) Run() time.Duration {
	return e.RunUntil(time.Duration(1<<63 - 1))
}

// RunUntil processes events with timestamps <= deadline and advances the
// clock to min(deadline, time of last event). It returns the clock.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 {
		ev := e.heap[0]
		if ev.at > deadline {
			break
		}
		e.heap.pop()
		e.now = ev.at
		e.steps++
		if e.MaxSteps > 0 && e.steps > e.MaxSteps {
			panic(fmt.Sprintf("sim: exceeded MaxSteps=%d (runaway simulation?)", e.MaxSteps))
		}
		fn := ev.fn
		// Recycle before running fn: the callback commonly schedules a
		// follow-up event, which then reuses this struct instead of
		// allocating. The Timer generation check keeps this safe.
		e.recycle(ev)
		fn()
	}
	return e.now
}

// Pending reports the number of not-yet-fired events. Cancelled events
// leave the heap eagerly, so this is the live heap size — O(1).
func (e *Engine) Pending() int {
	return len(e.heap)
}
