// Package simx provides a deterministic discrete-event simulation engine
// used by every timing model in the repository: the NAND packages, the
// FIMM channels, the PCI Express fabric, and the autonomic management
// module all schedule work on a single shared Engine.
//
// Time is an integer number of simulated nanoseconds. Events scheduled
// for the same instant fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so a simulation run is fully
// reproducible for a given input.
package simx

import "fmt"

// Time is a simulated instant or duration in nanoseconds.
type Time int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time using the most natural unit, e.g. "3.30us".
func (t Time) String() string {
	// The magnitude as a uint64, since -t overflows at math.MinInt64.
	sign, n := "", uint64(t)
	if t < 0 {
		sign, n = "-", -n
	}
	switch {
	case n >= uint64(Second):
		return fmt.Sprintf("%s%.3fs", sign, float64(n)/float64(Second))
	case n >= uint64(Millisecond):
		return fmt.Sprintf("%s%.3fms", sign, float64(n)/float64(Millisecond))
	case n >= uint64(Microsecond):
		return fmt.Sprintf("%s%.2fus", sign, float64(n)/float64(Microsecond))
	default:
		return fmt.Sprintf("%s%dns", sign, n)
	}
}

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Handler is an event receiver. The engine pre-binds a Handler plus
// one integer argument into a pooled Event node; when the event fires, OnEvent runs
// with that argument. Hot-path models store their per-operation state
// in pooled structs that implement Handler (the interface holds only a
// pointer, so the conversion never allocates) and use arg as a phase
// discriminator.
type Handler interface {
	OnEvent(arg uint64)
}

// Event is a scheduled handler invocation on an engine-owned pooled
// node: it is recycled onto an intrusive free-list the moment it
// fires, so the steady-state hot path schedules without allocating.
type Event struct {
	when Time
	seq  uint64
	h    Handler
	arg  uint64
	next *Event // free-list link while recycled
	ck   ckLife // pooled-lifecycle guard; empty unless -tags simcheck
}

// before reports whether a fires ahead of b: earlier time first, then
// earlier scheduling. seq is unique per engine, so (when, seq) is a
// strict total order and the firing sequence does not depend on the
// queue's layout.
func (a *Event) before(b *Event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// heapArity is the fan-out of the pending-event heap. Most sifts stop
// at the root's children: a fired event's follow-up takes the root
// slot and rarely sinks far (see Step). There a binary heap compares
// two children where a 4-ary heap compares four, and measured faster
// (docs/performance.md, "Event queue").
const heapArity = 2

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now    Time
	events []*Event // min-heap on (when, seq); see push and Step
	hole   bool     // events[0] is a fired event's recycled node; see Step
	seq    uint64
	fired  uint64
	free   *Event  // recycled event nodes (intrusive free-list)
	ck     ckState // empty unless built with -tags simcheck
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired.
// While a handler runs, the event it was called from no longer counts.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.events) - 1
	}
	return len(e.events)
}

// ScheduleEvent arranges for h.OnEvent(arg) to run delay nanoseconds
// from now on a pooled event node. A negative delay panics: the
// simulation cannot travel backwards.
func (e *Engine) ScheduleEvent(delay Time, h Handler, arg uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("simx: negative delay %v", delay))
	}
	e.AtEvent(e.now+delay, h, arg)
}

// AtEvent is ScheduleEvent at an absolute time t (>= Now).
func (e *Engine) AtEvent(t Time, h Handler, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("simx: scheduling at %v before now %v", t, e.now))
	}
	if h == nil {
		panic("simx: nil event handler")
	}
	ev := e.newEvent()
	e.seq++
	ev.when, ev.seq, ev.h, ev.arg = t, e.seq, h, arg
	e.push(ev)
	if simcheckEnabled {
		e.ckSchedule(ev)
	}
}

// newEvent pops a recycled event node or allocates a fresh one —
// the registered acquire point of the simx.Event pool (its release is
// recycle).
func (e *Engine) newEvent() *Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		if simcheckEnabled {
			ev.ck.Checkout("simx.Event")
		}
		ev.next = nil
	} else {
		ev = &Event{}
		if simcheckEnabled {
			ev.ck.Fresh("simx.Event")
		}
	}
	return ev
}

// recycle pushes a fired event node back onto the free-list.
func (e *Engine) recycle(ev *Event) {
	if simcheckEnabled {
		ev.ck.Release("simx.Event")
	}
	ev.h = nil
	ev.next = e.free
	e.free = ev
}

// push adds ev to the pending heap. While the root slot is empty (a
// handler's first schedule; see Step), ev takes that slot and sifts
// down. Otherwise it sifts up from a new leaf.
func (e *Engine) push(ev *Event) {
	if e.hole {
		e.hole = false
		e.siftDown(ev)
		return
	}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// siftDown puts ev in the root slot and moves it down past every child
// that fires before it.
func (e *Engine) siftDown(ev *Event) {
	h := e.events
	n := len(h)
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		end := min(c+heapArity, n)
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// dropRoot removes the empty root slot: the last leaf fills it and
// sifts down.
func (e *Engine) dropRoot() {
	e.hole = false
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = nil
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// Step fires the next event, if any, advancing the clock to its time.
// It reports whether an event fired.
//
// The fired event stays in the root slot while its handler runs, with
// its node already recycled and the slot marked empty (hole). Most
// handlers schedule a follow-up, and the first one takes the slot with
// a single sift down, where removing the root and then adding the
// follow-up would take two sifts. If the handler schedules nothing,
// Step removes the empty root when it returns. A
// Step, Run or RunUntil that finds the slot still empty (called from a
// handler, or after a handler's panic was recovered) removes it first
// and never fires it.
func (e *Engine) Step() bool {
	if e.hole {
		e.dropRoot()
	}
	if len(e.events) == 0 {
		return false
	}
	ev := e.events[0]
	if simcheckEnabled {
		e.ckStep(ev)
	}
	e.now = ev.when
	e.fired++
	// Recycle before invoking: the handler usually schedules its next
	// hop immediately, reusing this hot node.
	h, arg := ev.h, ev.arg
	e.recycle(ev)
	e.hole = true
	h.OnEvent(arg)
	if e.hole {
		e.dropRoot()
	}
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	if e.hole {
		e.dropRoot()
	}
	for len(e.events) > 0 && e.events[0].when <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor fires events within the next d nanoseconds.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
