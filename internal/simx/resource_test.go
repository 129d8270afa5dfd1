package simx

import (
	"testing"
	"testing/quick"
)

// grantFunc adapts a closure to Grantee for these tests.
type grantFunc func(arg uint64, waited Time)

func (f grantFunc) OnGrant(arg uint64, waited Time) { f(arg, waited) }

// hold takes a slot and keeps it.
var hold = grantFunc(func(uint64, Time) {})

func TestResourceImmediateGrant(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	granted := false
	r.AcquireG(grantFunc(func(_ uint64, w Time) {
		granted = true
		if w != 0 {
			t.Errorf("waited %v on an idle resource", w)
		}
	}), 0)
	if !granted {
		t.Fatal("idle resource did not grant synchronously")
	}
	if r.InUse() != 1 {
		t.Errorf("InUse() = %d, want 1", r.InUse())
	}
}

func TestResourceFIFOWait(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	var order []uint64

	r.AcquireG(hold, 0) // hold the slot
	g := grantFunc(func(arg uint64, _ Time) { order = append(order, arg) })
	for i := 0; i < 3; i++ {
		r.AcquireG(g, uint64(i))
	}
	if r.QueueLen() != 3 {
		t.Fatalf("QueueLen() = %d, want 3", r.QueueLen())
	}

	// Release at t=10, 20, 30; each release admits the next waiter.
	for k := 0; k < 3; k++ {
		after(eng, Time(10*(k+1)), r.Release)
	}
	eng.Run()

	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("waiters granted in order %v, want [0 1 2]", order)
	}
	if r.InUse() != 1 { // last waiter still holds it
		t.Errorf("InUse() = %d, want 1", r.InUse())
	}
}

func TestResourceWaitTimes(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	r.AcquireG(hold, 0)
	var waited Time = -1
	r.AcquireG(grantFunc(func(_ uint64, w Time) { waited = w }), 0)
	after(eng, 42, r.Release)
	eng.Run()
	if waited != 42 {
		t.Errorf("waiter saw wait %v, want 42", waited)
	}
}

func TestResourceCapacityN(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "dies", 3)
	grants := 0
	g := grantFunc(func(_ uint64, w Time) {
		if w == 0 {
			grants++
		}
	})
	for i := 0; i < 5; i++ {
		r.AcquireG(g, 0)
	}
	if grants != 3 {
		t.Errorf("%d immediate grants, want 3", grants)
	}
	if r.QueueLen() != 2 {
		t.Errorf("QueueLen() = %d, want 2", r.QueueLen())
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	eng := NewEngine()
	NewResource(eng, "x", 1).Release()
}

func TestBusyIntegral(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	// busy [10, 30), idle [30, 50), busy [50, 60)
	after(eng, 10, func() { r.AcquireG(hold, 0) })
	after(eng, 30, r.Release)
	after(eng, 50, func() { r.AcquireG(hold, 0) })
	after(eng, 60, r.Release)
	eng.Run()
	if got := r.BusyNS(); got != 30 {
		t.Errorf("BusyNS() = %v, want 30", got)
	}
}

func TestUtilizationSince(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	after(eng, 0, func() { r.AcquireG(hold, 0) })
	after(eng, 50, r.Release)
	eng.RunUntil(100)
	// busy 50 of 100 ns
	if u := r.UtilizationSince(0, 0); u != 0.5 {
		t.Errorf("UtilizationSince = %v, want 0.5", u)
	}
	// window [50,100) entirely idle
	snap := r.BusyNS()
	eng.RunUntil(200)
	if u := r.UtilizationSince(100, snap); u != 0 {
		t.Errorf("idle-window utilization = %v, want 0", u)
	}
}

// Property: with capacity 1 and k sequential hold/release cycles of
// duration d each, busy time is k*d and every waiter is granted.
func TestPropertyResourceConservation(t *testing.T) {
	f := func(durations []uint8) bool {
		eng := NewEngine()
		r := NewResource(eng, "bus", 1)
		var total Time
		granted := 0
		for _, d8 := range durations {
			d := Time(d8) + 1 // at least 1ns
			total += d
			r.AcquireG(grantFunc(func(uint64, Time) {
				granted++
				after(eng, d, r.Release)
			}), 0)
		}
		eng.Run()
		return granted == len(durations) && r.BusyNS() == total && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n(1000) = %d out of range", v)
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(99)
	n := 20000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("Bool(0.25) hit rate %v, want ~0.25", frac)
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for n<=0")
				}
			}()
			fn()
		}()
	}
}

func TestResourceIntrospection(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "intro", 2)
	r.AcquireG(hold, 0)
	if r.InUse() != 1 || r.QueueLen() != 0 {
		t.Errorf("InUse/QueueLen = %d/%d after one grant", r.InUse(), r.QueueLen())
	}
}
