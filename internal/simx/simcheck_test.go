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

// TestSimcheckDetectsCorruptHeap plants heaps that break the order
// between one parent and one child and expects the sweep to panic:
// this proves the checker actually checks, at both child slots (2i+1
// and 2i+2) of a node. A valid binary heap whose root slot a handler
// holds empty must not be swept either (its node is recycled). The
// last row is a valid binary heap that a 4-ary sweep (children 4i+1 ..
// 4i+4) would reject: slot 5 is slot 2's child but would be slot 1's.
func TestSimcheckDetectsCorruptHeap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		whens   []Time // slot by slot; seq follows slot order
		hole    bool   // the root slot is empty
		corrupt bool
	}{
		{"root after its first child", []Time{2, 1}, false, true},
		{"root after its second child", []Time{2, 3, 1}, false, true},
		{"slot 1 after its first child", []Time{1, 3, 4, 2}, false, true},
		{"slot 1 after its second child", []Time{1, 3, 4, 4, 2}, false, true},
		{"empty root slot", []Time{1, 2, 3}, true, true},
		{"valid binary heap", []Time{1, 5, 2, 6, 6, 3}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			for i, w := range tc.whens {
				eng.events = append(eng.events, &Event{when: w, seq: uint64(i + 1)})
			}
			eng.hole = tc.hole
			defer func() {
				if panicked := recover() != nil; panicked != tc.corrupt {
					t.Fatalf("ckVerifyHeap panicked = %v on %v, want %v", panicked, tc.whens, tc.corrupt)
				}
			}()
			eng.ckVerifyHeap()
		})
	}
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
