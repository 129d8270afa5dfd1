package simx

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.00us"},
		{3300, "3.30us"},
		{Millisecond, "1.000ms"},
		{2 * Second, "2.000s"},
		{-Microsecond, "-1.00us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeMicros(t *testing.T) {
	if got := (3300 * Nanosecond).Micros(); got != 3.3 {
		t.Errorf("Micros() = %v, want 3.3", got)
	}
}

// handlerFunc adapts a closure to Handler for these tests.
type handlerFunc func(arg uint64)

func (f handlerFunc) OnEvent(arg uint64) { f(arg) }

// nopHandler ignores its events.
var nopHandler = handlerFunc(func(uint64) {})

// after runs fn d nanoseconds from now.
func after(eng *Engine, d Time, fn func()) {
	eng.ScheduleEvent(d, handlerFunc(func(uint64) { fn() }), 0)
}

func TestScheduleOrdering(t *testing.T) {
	eng := NewEngine()
	var order []uint64
	h := handlerFunc(func(arg uint64) { order = append(order, arg) })
	eng.ScheduleEvent(30, h, 3)
	eng.ScheduleEvent(10, h, 1)
	eng.ScheduleEvent(20, h, 2)
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
	if eng.Now() != 30 {
		t.Errorf("Now() = %v, want 30", eng.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	eng := NewEngine()
	var order []uint64
	h := handlerFunc(func(arg uint64) { order = append(order, arg) })
	for i := 0; i < 10; i++ {
		eng.ScheduleEvent(5, h, uint64(i))
	}
	eng.Run()
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var hits []Time
	var h handlerFunc
	h = func(arg uint64) {
		hits = append(hits, eng.Now())
		if arg == 0 {
			eng.ScheduleEvent(5, h, 1)
		}
	}
	eng.ScheduleEvent(10, h, 0)
	eng.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestRunUntil(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	h := handlerFunc(func(arg uint64) { fired = append(fired, Time(arg)) })
	for _, d := range []Time{10, 20, 30, 40} {
		eng.ScheduleEvent(d, h, uint64(d))
	}
	eng.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want two events", fired)
	}
	if eng.Now() != 25 {
		t.Errorf("Now() = %v after RunUntil(25)", eng.Now())
	}
	eng.Run()
	if len(fired) != 4 {
		t.Fatalf("Run() after RunUntil left events: fired %v", fired)
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	eng := NewEngine()
	eng.RunFor(100)
	if eng.Now() != 100 {
		t.Errorf("Now() = %v after empty RunFor(100)", eng.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ScheduleEvent(-1) did not panic")
		}
	}()
	NewEngine().ScheduleEvent(-1, nopHandler, 0)
}

func TestAtBeforeNowPanics(t *testing.T) {
	eng := NewEngine()
	eng.ScheduleEvent(10, nopHandler, 0)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Error("AtEvent(past) did not panic")
		}
	}()
	eng.AtEvent(5, nopHandler, 0)
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	eng := NewEngine()
	if eng.Step() {
		t.Error("Step() on empty engine returned true")
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		var fired []Time
		var max Time
		h := handlerFunc(func(uint64) { fired = append(fired, eng.Now()) })
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			eng.ScheduleEvent(d, h, 0)
		}
		eng.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || eng.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEngineIntrospection(t *testing.T) {
	eng := NewEngine()
	eng.ScheduleEvent(25, nopHandler, 0)
	if eng.Pending() != 1 {
		t.Errorf("Pending = %d", eng.Pending())
	}
	eng.Run()
	if eng.Pending() != 0 {
		t.Errorf("Pending after run = %d", eng.Pending())
	}
	if eng.EventPoolFree() != 1 {
		t.Errorf("EventPoolFree after run = %d, want the one recycled node", eng.EventPoolFree())
	}
}
