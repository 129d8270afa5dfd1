package simx

import "testing"

// fuzzMaxEvents caps the events one decoded schedule may create, so a
// run whose handlers keep spawning children still ends.
const fuzzMaxEvents = 2048

// fuzzSchedule is the program FuzzEngineOrder decodes from its input.
// Events are numbered in scheduling order, so an event's number is also
// its expected sequence number. Byte i seeds event i at delay
// data[i]%4: four instants, so most events tie with others. When event
// id fires, byte b = data[id%len(data)] spawns (b>>2)%3 children, child
// k at delay (b>>(4+2k))%3 from the firing instant. A delay of 0 ties
// the child with events already pending at that instant.
type fuzzSchedule []byte

func (s fuzzSchedule) initial() []Time {
	delays := make([]Time, min(len(s), fuzzMaxEvents))
	for i := range delays {
		delays[i] = Time(s[i] % 4)
	}
	return delays
}

func (s fuzzSchedule) children(id uint64) []Time {
	b := s[id%uint64(len(s))]
	delays := make([]Time, (b>>2)%3)
	for k := range delays {
		delays[k] = Time((b >> (4 + 2*k)) % 3)
	}
	return delays
}

// firing is one event observed firing: its number, its instant, and
// how many other events were pending when its handler began.
type firing struct {
	id      uint64
	at      Time
	pending int
}

// fuzzRun plays a fuzzSchedule on the engine. It is the Handler of
// every event it schedules, with the event's number as arg.
type fuzzRun struct {
	eng   *Engine
	s     fuzzSchedule
	next  uint64
	fired []firing
}

func (r *fuzzRun) schedule(d Time) {
	if r.next < fuzzMaxEvents {
		r.eng.ScheduleEvent(d, r, r.next)
		r.next++
	}
}

func (r *fuzzRun) OnEvent(id uint64) {
	r.fired = append(r.fired, firing{id, r.eng.Now(), r.eng.Pending()})
	for _, d := range r.s.children(id) {
		r.schedule(d)
	}
}

// referenceOrder plays the same schedule without the engine: a flat
// pending list from which every step removes the (when, seq) minimum
// by a linear scan.
func referenceOrder(s fuzzSchedule) []firing {
	type pending struct {
		when Time
		seq  uint64
	}
	var (
		now   Time
		pend  []pending
		next  uint64
		fired []firing
	)
	schedule := func(d Time) {
		if next < fuzzMaxEvents {
			pend = append(pend, pending{now + d, next})
			next++
		}
	}
	for _, d := range s.initial() {
		schedule(d)
	}
	for len(pend) > 0 {
		m := 0
		for i, p := range pend {
			if p.when < pend[m].when || (p.when == pend[m].when && p.seq < pend[m].seq) {
				m = i
			}
		}
		ev := pend[m]
		pend[m] = pend[len(pend)-1]
		pend = pend[:len(pend)-1]
		now = ev.when
		fired = append(fired, firing{ev.seq, now, len(pend)})
		for _, d := range s.children(ev.seq) {
			schedule(d)
		}
	}
	return fired
}

// FuzzEngineOrder checks that the engine fires any schedule, including
// events that handlers add while it runs, in exactly the (when, seq)
// order of referenceOrder, and that each handler sees the reference's
// Pending count: the event firing is no longer pending, though its
// empty slot is still the heap's root. The engine side drains through
// RunUntil in strides of 1-3 ns taken from the input, so the run also
// crosses the early-exit peek at the heap's root.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(make([]byte, 16)) // 16 events at one instant, no children
	f.Add([]byte{0x04, 0x08, 0x15, 0x2a, 0x3f, 0x96, 0xc9, 0xfe})
	deep := make([]byte, 256) // 256 pending at the start: a heap nine levels deep
	for i := range deep {
		deep[i] = byte(i * 37)
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSchedule(data)
		want := referenceOrder(s)
		r := &fuzzRun{eng: NewEngine(), s: s}
		for _, d := range s.initial() {
			r.schedule(d)
		}
		stride := Time(1)
		if len(data) > 0 {
			stride += Time(data[0] % 3)
		}
		for r.eng.Pending() > 0 {
			r.eng.RunUntil(r.eng.Now() + stride)
		}
		if len(r.fired) != len(want) || r.eng.Fired() != uint64(len(want)) {
			t.Fatalf("engine fired %d events (Fired %d), reference %d", len(r.fired), r.eng.Fired(), len(want))
		}
		for i := range want {
			if r.fired[i] != want[i] {
				t.Fatalf("firing %d: engine fired event %d at %v with %d pending, reference event %d at %v with %d pending",
					i, r.fired[i].id, r.fired[i].at, r.fired[i].pending, want[i].id, want[i].at, want[i].pending)
			}
		}
	})
}
