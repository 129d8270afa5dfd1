package simx

import (
	"math"
	"slices"
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
		{math.MinInt64, "-9223372036.855s"}, // -t overflows: no recursion
		{math.MaxInt64, "9223372036.855s"},
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
	// The fired node is recycled, so a warm engine schedules and fires
	// the next event without allocating.
	if n := testing.AllocsPerRun(100, func() {
		eng.ScheduleEvent(25, nopHandler, 0)
		eng.Run()
	}); n != 0 {
		t.Errorf("schedule and fire on a warm engine: %v allocations, want 0", n)
	}
}

// seen is one event observed firing: its arg, the clock, and Pending()
// as its handler saw it.
type seen struct {
	arg     uint64
	at      Time
	pending int
}

// probe logs every firing, then runs the row's reaction to it.
type probe struct {
	eng   *Engine
	log   []seen
	react func(p *probe, arg uint64)
}

func (p *probe) OnEvent(arg uint64) {
	p.log = append(p.log, seen{arg, p.eng.Now(), p.eng.Pending()})
	if p.react != nil {
		p.react(p, arg)
	}
}

// followUps maps an event's arg to its follow-up delays; follow-up k of
// event a gets arg 10*a+k+1.
func followUps(delays map[uint64][]Time) func(p *probe, arg uint64) {
	return func(p *probe, arg uint64) {
		for k, d := range delays[arg] {
			p.eng.ScheduleEvent(d, p, 10*arg+uint64(k)+1)
		}
	}
}

// panicsOn1 is a reaction whose handler for event 1 fails.
func panicsOn1(p *probe, arg uint64) {
	if arg == 1 {
		panic("handler failed")
	}
}

// runToPanic runs the engine into a panicsOn1 failure, recovers it, and
// checks that the failed event no longer counts as pending.
func runToPanic(t *testing.T, p *probe) {
	t.Helper()
	func() {
		defer func() {
			if r := recover(); r != "handler failed" {
				t.Fatalf("recovered %v, want the handler's panic", r)
			}
		}()
		p.eng.Run()
	}()
	if got := p.eng.Pending(); got != 2 {
		t.Errorf("Pending after the panic = %d, want 2", got)
	}
}

// TestFusedStepContract pins Step's fused fire-and-reschedule. While a
// handler runs, its event's slot is the heap's empty root. Whatever the
// handler does (schedule nothing, one or several follow-ups, call Step
// or RunUntil itself, or panic), events fire in (when, seq) order, the
// fired event never counts as pending, and the empty root never fires.
func TestFusedStepContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		at    []Time // initial events, args 1, 2, ... in this order
		react func(p *probe, arg uint64)
		run   func(t *testing.T, p *probe) // nil: Run
		want  []seen
	}{
		{
			name: "no follow-up",
			at:   []Time{30, 10, 20, 10},
			want: []seen{{2, 10, 3}, {4, 10, 2}, {3, 20, 1}, {1, 30, 0}},
		},
		{
			// 11 sinks below both pending events, 21 ties the clock,
			// and 31 ties 11 at 35 but was scheduled later.
			name:  "one follow-up",
			at:    []Time{10, 20, 30},
			react: followUps(map[uint64][]Time{1: {25}, 2: {0}, 3: {5}}),
			want:  []seen{{1, 10, 2}, {2, 20, 2}, {21, 20, 2}, {3, 30, 1}, {11, 35, 1}, {31, 35, 0}},
		},
		{
			name:  "three follow-ups",
			at:    []Time{10, 10, 40},
			react: followUps(map[uint64][]Time{1: {30, 0, 5}}),
			want:  []seen{{1, 10, 2}, {2, 10, 4}, {12, 10, 3}, {13, 15, 2}, {3, 40, 1}, {11, 40, 0}},
		},
		{
			name: "handler calls Step",
			at:   []Time{10, 10, 20},
			react: func(p *probe, arg uint64) {
				if arg == 1 {
					if !p.eng.Step() {
						panic("nested Step fired nothing")
					}
					p.eng.ScheduleEvent(0, p, 11)
				}
			},
			want: []seen{{1, 10, 2}, {2, 10, 1}, {11, 10, 1}, {3, 20, 0}},
		},
		{
			name: "handler calls RunUntil(Now())",
			at:   []Time{10, 10, 10, 20},
			react: func(p *probe, arg uint64) {
				if arg == 1 {
					p.eng.RunUntil(p.eng.Now())
					p.eng.ScheduleEvent(5, p, 11)
				}
			},
			want: []seen{{1, 10, 3}, {2, 10, 2}, {3, 10, 1}, {11, 15, 1}, {4, 20, 0}},
		},
		{
			name:  "Run again after a recovered panic",
			at:    []Time{10, 20, 30},
			react: panicsOn1,
			run: func(t *testing.T, p *probe) {
				runToPanic(t, p)
				p.eng.Run()
			},
			want: []seen{{1, 10, 2}, {2, 20, 1}, {3, 30, 0}},
		},
		{
			name:  "RunUntil after a recovered panic",
			at:    []Time{10, 20, 30},
			react: panicsOn1,
			run: func(t *testing.T, p *probe) {
				runToPanic(t, p)
				// The empty root still holds the failed event's time, 10.
				p.eng.RunUntil(15)
				if len(p.log) != 1 || p.eng.Now() != 15 {
					t.Errorf("RunUntil(15) after the panic: %d firings, clock %v; want 1, 15", len(p.log), p.eng.Now())
				}
				p.eng.Run()
			},
			want: []seen{{1, 10, 2}, {2, 20, 1}, {3, 30, 0}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &probe{eng: NewEngine(), react: tc.react}
			for i, w := range tc.at {
				p.eng.AtEvent(w, p, uint64(i+1))
			}
			if tc.run != nil {
				tc.run(t, p)
			} else {
				p.eng.Run()
			}
			if !slices.Equal(p.log, tc.want) {
				t.Errorf("fired (arg, at, pending) %v, want %v", p.log, tc.want)
			}
			if p.eng.Pending() != 0 || p.eng.Fired() != uint64(len(tc.want)) {
				t.Errorf("after the run: Pending %d, Fired %d; want 0, %d", p.eng.Pending(), p.eng.Fired(), len(tc.want))
			}
		})
	}
}
