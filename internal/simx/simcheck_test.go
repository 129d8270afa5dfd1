//go:build simcheck

package simx

import "testing"

// TestSimcheckSweepsCleanRun schedules enough events to force several
// full-heap verifications; a correct engine must survive them.
func TestSimcheckSweepsCleanRun(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(7)
	h := &countHandler{}
	for i := 0; i < 4*ckVerifyEvery; i++ {
		eng.ScheduleEvent(Time(rng.Intn(1000))*Microsecond, h, 0)
	}
	eng.Run()
	if h.n != 4*ckVerifyEvery {
		t.Fatalf("fired %d of %d events", h.n, 4*ckVerifyEvery)
	}
}

// TestSimcheckDetectsCorruptHeap breaks the heap order and expects the
// sweep to panic: this proves the checker actually checks.
func TestSimcheckDetectsCorruptHeap(t *testing.T) {
	eng := NewEngine()
	eng.ScheduleEvent(Microsecond, nopHandler, 0)
	eng.ScheduleEvent(2*Microsecond, nopHandler, 0)
	// Put the later event at the root, above its earlier child.
	eng.events[0], eng.events[1] = eng.events[1], eng.events[0]
	defer func() {
		if recover() == nil {
			t.Fatal("ckVerifyHeap accepted a heap whose root fires after its child")
		}
	}()
	eng.ckVerifyHeap()
}

// TestSimcheckDetectsPastEvent plants an event behind the clock and
// expects the monotonicity check to panic.
func TestSimcheckDetectsPastEvent(t *testing.T) {
	eng := NewEngine()
	eng.ScheduleEvent(Millisecond, nopHandler, 0)
	ev := eng.events[0]
	eng.now = 2 * Millisecond // move the clock past the pending event
	defer func() {
		if recover() == nil {
			t.Fatal("ckStep accepted an event before the clock")
		}
	}()
	eng.ckStep(ev)
}
