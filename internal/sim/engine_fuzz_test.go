package sim

import (
	"testing"
	"time"
)

// refEvent is the reference model's view of one pending event.
type refEvent struct {
	at    time.Duration
	phase uint8
	seq   uint64
	ver   int // bumped by every Reschedule: older handle copies go stale
}

// refBefore is the engine's documented firing order: (at, phase, seq).
func refBefore(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.seq < b.seq
}

// fuzzHandle is a Timer plus what the reference model knows about it.
type fuzzHandle struct {
	tm  Timer
	id  int
	ver int
}

// FuzzEngineOrder drives random At / AtLate / Cancel / Reschedule
// sequences — issued up front and from inside callbacks, through live,
// stale and copied Timer handles — and checks every firing against a
// reference model that keeps the pending set and picks the minimum by
// (at, phase, seq). It pins the heap's order, eager Cancel (Pending
// stays exact after every operation), and Reschedule ≡ Cancel + At.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 0, 3, 1, 2})
	f.Add([]byte{3, 0, 2, 4, 0, 3, 1, 0, 2, 1, 3, 0, 0, 0, 2, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 4, 0, 3, 1, 0, 2, 1, 2, 0, 3, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		pending := map[int]refEvent{}
		var handles []fuzzHandle
		var seq uint64
		nextID := 0
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return -1
			}
			b := int(data[pos])
			pos++
			return b
		}

		var fire func(id int) func()
		add := func(at time.Duration, phase uint8) int {
			id := nextID
			nextID++
			pending[id] = refEvent{at: at, phase: phase, seq: seq}
			seq++
			return id
		}
		live := func(h fuzzHandle) bool {
			ev, ok := pending[h.id]
			return ok && ev.ver == h.ver
		}
		// op decodes and applies one operation; false when data ran out.
		op := func() bool {
			code, arg := next(), next()
			if code < 0 || arg < 0 {
				return false
			}
			at := e.Now() + time.Duration(arg%4)*time.Millisecond
			switch code % 5 {
			case 0: // At
				id := add(at, 0)
				handles = append(handles, fuzzHandle{tm: e.At(at, fire(id)), id: id})
			case 1: // AtLate
				id := add(at, 1)
				handles = append(handles, fuzzHandle{tm: e.AtLate(at, fire(id)), id: id})
			case 2, 3: // Cancel or Reschedule through a (possibly stale) handle
				if len(handles) == 0 {
					return true
				}
				h := &handles[arg%len(handles)]
				if code%5 == 2 {
					if live(*h) {
						delete(pending, h.id)
					}
					h.tm.Cancel()
					break
				}
				if live(*h) {
					ev := pending[h.id]
					ev.at, ev.phase, ev.seq = at, 0, seq
					ev.ver++
					seq++
					pending[h.id] = ev
					h.ver = ev.ver
					e.Reschedule(&h.tm, at, fire(h.id))
				} else {
					id := add(at, 0)
					h.id, h.ver = id, 0
					e.Reschedule(&h.tm, at, fire(id))
				}
			case 4: // copy a handle, so a later Reschedule leaves a stale twin
				if len(handles) > 0 {
					handles = append(handles, handles[arg%len(handles)])
				}
			}
			if got, want := e.Pending(), len(pending); got != want {
				t.Fatalf("Pending() = %d, reference has %d", got, want)
			}
			return true
		}
		fire = func(id int) func() {
			return func() {
				ev, ok := pending[id]
				if !ok {
					t.Fatalf("event %d fired but is not pending (cancelled or already fired)", id)
				}
				for other, o := range pending {
					if other != id && refBefore(o, ev) {
						t.Fatalf("event %d (at %v phase %d seq %d) fired before %d (at %v phase %d seq %d)",
							id, ev.at, ev.phase, ev.seq, other, o.at, o.phase, o.seq)
					}
				}
				if e.Now() != ev.at {
					t.Fatalf("event %d fired at %v, scheduled for %v", id, e.Now(), ev.at)
				}
				delete(pending, id)
				// Callbacks keep scheduling, so ordering is exercised
				// against events added while the clock moves.
				for i := 0; i < 2 && op(); i++ {
				}
			}
		}

		for i := 0; i < 4 && op(); i++ {
		}
		e.Run()
		if len(pending) != 0 || e.Pending() != 0 {
			t.Fatalf("run ended with %d reference / %d engine events pending", len(pending), e.Pending())
		}
	})
}
