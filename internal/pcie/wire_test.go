package pcie

import (
	"math"
	"strings"
	"testing"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// Tests of the booked wire: a packet takes the wire when it wins its
// credit, and its one event is its delivery.

// timedSink is a sink that also records each delivery's instant.
type timedSink struct {
	sink
	eng *simx.Engine
	at  []simx.Time
}

func (s *timedSink) Receive(pkt *Packet, from *Link) {
	s.at = append(s.at, s.eng.Now())
	s.sink.Receive(pkt, from)
}

func route0(*Packet) int { return 0 }

// page is a 4 KiB payload: 1030 ns on a 4 GB/s link.
const page = 4 * units.KiB

// TestWireBackToBackUnderCreditPressure sends packets of mixed sizes
// through a two-credit link with no propagation delay. A credit returns
// the instant its packet ends, so the wire never idles while packets
// wait: each packet starts exactly when the one before it ends, in send
// order, and its credit and wire waits add up to its start.
func TestWireBackToBackUnderCreditPressure(t *testing.T) {
	eng := simx.NewEngine()
	dst := &timedSink{sink: sink{autoACK: true}, eng: eng}
	l := NewLink(eng, "l", 1_000_000_000, 0, 2, dst)
	sizes := []units.Bytes{4096, 0, 512, 4096, 64, 2048, 0, 1000, 4096}
	for i, sz := range sizes {
		l.Send(&Packet{ID: uint64(i), Payload: sz}, nil)
	}
	eng.Run()
	if len(dst.pkts) != len(sizes) {
		t.Fatalf("delivered %d, want %d", len(dst.pkts), len(sizes))
	}
	var end simx.Time
	for i, p := range dst.pkts {
		if p.ID != uint64(i) {
			t.Fatalf("delivery %d is packet %d: FIFO order broken", i, p.ID)
		}
		start := dst.at[i] - l.TransferTime(p.Payload)
		if start != end {
			t.Errorf("packet %d starts at %v, want the previous end %v", i, start, end)
		}
		if p.CreditWait+p.WireWait != start {
			t.Errorf("packet %d: CreditWait %v + WireWait %v, want its start %v", i, p.CreditWait, p.WireWait, start)
		}
		end = dst.at[i]
	}
	if l.BusyNS() != end {
		t.Errorf("BusyNS = %v, want the whole span %v", l.BusyNS(), end)
	}
}

// TestRetrainBookedBehindInFlight books a retrain window behind two
// packets already on the wire. A packet sent during the window starts
// when it ends.
func TestRetrainBookedBehindInFlight(t *testing.T) {
	eng := simx.NewEngine()
	dst := &timedSink{sink: sink{autoACK: true}, eng: eng}
	l := NewLink(eng, "l", 4_000_000_000, 100, 4, dst)
	p1, p2, p3 := &Packet{ID: 1, Payload: page}, &Packet{ID: 2, Payload: page}, &Packet{ID: 3, Payload: page}
	l.Send(p1, nil) // wire [0, 1030)
	l.Send(p2, nil) // wire [1030, 2060)
	l.Retrain(500)  // window [2060, 2560)
	eng.RunUntil(2200)
	l.Send(p3, nil) // inside the window
	eng.Run()
	want := []simx.Time{1130, 2160, 2560 + 1030 + 100}
	if len(dst.at) != 3 || dst.at[0] != want[0] || dst.at[1] != want[1] || dst.at[2] != want[2] {
		t.Fatalf("deliveries at %v, want %v", dst.at, want)
	}
	if p2.WireWait != 1030 || p3.WireWait != 360 {
		t.Errorf("WireWait p2/p3 = %v/%v, want 1030ns/360ns", p2.WireWait, p3.WireWait)
	}
	if l.BusyNS() != 3*1030+500 {
		t.Errorf("BusyNS = %v, want three transfers and the window, 3590ns", l.BusyNS())
	}
}

// busyBefore reports how much of the intervals [s, e) lies before now.
func busyBefore(now simx.Time, spans [][2]simx.Time) simx.Time {
	var b simx.Time
	for _, s := range spans {
		b += max(min(now, s[1])-s[0], 0)
	}
	return b
}

// TestBusyNSNeverAhead reads BusyNS mid-transfer and while transfers
// are booked ahead. It never exceeds the busy time elapsed, it is exact
// on back-to-back transfers, and it is exact once the wire is idle.
func TestBusyNSNeverAhead(t *testing.T) {
	t.Run("back-to-back", func(t *testing.T) {
		eng := simx.NewEngine()
		l := NewLink(eng, "l", 4_000_000_000, 100, 4, &sink{autoACK: true})
		for i := 0; i < 3; i++ {
			l.Send(&Packet{Payload: page}, nil) // wire [0, 3090)
		}
		spans := [][2]simx.Time{{0, 3090}}
		for _, at := range []simx.Time{0, 1, 500, 1030, 2000, 3090, 5000} {
			eng.RunUntil(at)
			if got, want := l.BusyNS(), busyBefore(at, spans); got != want {
				t.Errorf("at %v: BusyNS = %v, want %v", at, got, want)
			}
		}
	})
	// RC injections wait out the routing latency, so a booking can
	// leave the wire idle ahead of now. BusyNS then reads low, never
	// high, until the gap is behind it.
	t.Run("not-before gaps", func(t *testing.T) {
		eng := simx.NewEngine()
		rc := NewRootComplex(eng, 200, route0, func(*Packet) {})
		l := NewLink(eng, "p0", 4_000_000_000, 100, 4, &sink{autoACK: true})
		rc.AddPort(l)
		rc.Inject(&Packet{Payload: page}) // wire [200, 1230)
		spans := [][2]simx.Time{{200, 1230}, {1300, 2330}}
		for _, at := range []simx.Time{0, 100, 200, 700, 1100, 1250, 1300, 1800, 2330, 3000} {
			eng.RunUntil(at)
			if at == 1100 {
				rc.Inject(&Packet{Payload: page}) // wire [1300, 2330)
			}
			got, elapsed := l.BusyNS(), busyBefore(at, spans)
			if got > elapsed || got < 0 {
				t.Errorf("at %v: BusyNS = %v, want within [0, %v]", at, got, elapsed)
			}
			if at >= 2330 && got != elapsed {
				t.Errorf("at %v, wire idle: BusyNS = %v, want %v", at, got, elapsed)
			}
		}
	})
}

// TestRoutedDeliveryTime checks that a link into a Switch or the RC
// waits out the receiver's routing latency: the packet arrives xfer +
// propagation + routing latency after it starts, and each hop charges
// RouteTime once.
func TestRoutedDeliveryTime(t *testing.T) {
	eng := simx.NewEngine()
	hostAt := simx.Time(-1)
	rc := NewRootComplex(eng, 200, route0, func(*Packet) { hostAt = eng.Now() })
	sw := NewSwitch(eng, "sw", 150, func(p *Packet) int {
		if p.Kind == Completion {
			return Upstream
		}
		return 0
	})
	dst := &timedSink{sink: sink{autoACK: true}, eng: eng}
	sw.AddDownstream(NewLink(eng, "down", 4_000_000_000, 100, 4, dst))
	up := NewLink(eng, "up", 16_000_000_000, 100, 8, rc)
	sw.SetUpstream(up)
	in := NewLink(eng, "in", 16_000_000_000, 100, 8, sw)
	xfer16 := in.TransferTime(page) // 258 ns at 16 GB/s

	wr := &Packet{Kind: MemWrite, Payload: page}
	in.Send(wr, nil)
	atSwitch := xfer16 + 100 + 150
	eng.RunUntil(atSwitch - 1)
	if sw.Forwarded() != 0 {
		t.Fatalf("switch forwarded before %v: the routing latency was not waited out", atSwitch)
	}
	eng.RunUntil(atSwitch)
	if sw.Forwarded() != 1 {
		t.Fatalf("switch has not forwarded at %v", atSwitch)
	}
	eng.Run()
	if want := atSwitch + 1030 + 100; len(dst.at) != 1 || dst.at[0] != want {
		t.Errorf("endpoint delivery at %v, want %v (no routing latency on a plain receiver)", dst.at, want)
	}
	if wr.RouteTime != 150 {
		t.Errorf("downstream RouteTime = %v, want one switch latency 150ns", wr.RouteTime)
	}

	t0 := eng.Now()
	cpl := &Packet{Kind: Completion, Payload: page}
	in.Send(cpl, nil)
	eng.Run()
	if want := t0 + (xfer16 + 100 + 150) + (up.TransferTime(page) + 100 + 200); hostAt != want {
		t.Errorf("host delivery at %v, want %v", hostAt, want)
	}
	if cpl.RouteTime != 350 {
		t.Errorf("upstream RouteTime = %v, want switch + RC latency 350ns", cpl.RouteTime)
	}
}

// TestRootComplexInjectNotBefore checks that an injected packet takes
// its port's wire no earlier than one RC routing latency after Inject,
// and that its credit wait counts from that instant: a credit that
// returns within the latency costs nothing.
func TestRootComplexInjectNotBefore(t *testing.T) {
	eng := simx.NewEngine()
	rc := NewRootComplex(eng, 200, route0, func(*Packet) {})
	dst := &timedSink{sink: sink{autoACK: true}, eng: eng}
	rc.AddPort(NewLink(eng, "p0", 4_000_000_000, 100, 1, dst))

	p1, p2, p3 := &Packet{ID: 1, Payload: page}, &Packet{ID: 2, Payload: page}, &Packet{ID: 3, Payload: page}
	rc.Inject(p1) // takes the credit now; wire [200, 1230), delivered at 1330
	eng.RunUntil(1200)
	rc.Inject(p2) // no credit; it returns at 1330, before p2 may start at 1400
	eng.RunUntil(1400)
	rc.Inject(p3) // may start at 1600; the credit is back when p2 lands at 2530
	eng.Run()

	want := []simx.Time{1330, 1400 + 1130, 2530 + 1130}
	if len(dst.at) != 3 || dst.at[0] != want[0] || dst.at[1] != want[1] || dst.at[2] != want[2] {
		t.Fatalf("deliveries at %v, want %v", dst.at, want)
	}
	for _, c := range []struct {
		p          *Packet
		credit, wi simx.Time
	}{{p1, 0, 0}, {p2, 0, 0}, {p3, 2530 - 1600, 0}} {
		if c.p.CreditWait != c.credit || c.p.WireWait != c.wi || c.p.RouteTime != 200 {
			t.Errorf("packet %d: CreditWait/WireWait/RouteTime = %v/%v/%v, want %v/%v/200ns",
				c.p.ID, c.p.CreditWait, c.p.WireWait, c.p.RouteTime, c.credit, c.wi)
		}
	}
	if rc.Injected() != 3 {
		t.Errorf("Injected = %d, want 3", rc.Injected())
	}
}

// TestSetRateScaleAppliesAtBooking checks that a rate change applies to
// transfers booked after it, and not to one already booked that has not
// started yet.
func TestSetRateScaleAppliesAtBooking(t *testing.T) {
	eng := simx.NewEngine()
	dst := &timedSink{sink: sink{autoACK: true}, eng: eng}
	l := NewLink(eng, "l", 4_000_000_000, 0, 4, dst)
	p1, p2, p3 := &Packet{ID: 1, Payload: page}, &Packet{ID: 2, Payload: page}, &Packet{ID: 3, Payload: page}
	l.Send(p1, nil) // wire [0, 1030)
	l.Send(p2, nil) // booked [1030, 2060) at the nominal rate
	l.SetRateScale(2)
	l.Send(p3, nil) // booked after the change: [2060, 4120)
	eng.Run()
	if p2.WireTime != 1030 || p3.WireTime != 2060 {
		t.Errorf("WireTime p2/p3 = %v/%v, want 1030ns (booked before) and 2060ns (after)", p2.WireTime, p3.WireTime)
	}
	if want := []simx.Time{1030, 2060, 4120}; len(dst.at) != 3 || dst.at[2] != want[2] || dst.at[1] != want[1] {
		t.Errorf("deliveries at %v, want %v", dst.at, want)
	}
}

// TestWireBookingPanics checks that a booking that would move the wire
// back in time or overflow panics at once, names its link and the
// cause, and can be recovered (the message formats without failing).
func TestWireBookingPanics(t *testing.T) {
	for _, c := range []struct {
		name, want string
		do         func(l *Link)
	}{
		{"negative retrain", "cannot book", func(l *Link) { l.Retrain(-500) }},
		{"retrain past the end of time", "cannot book", func(l *Link) { l.Retrain(math.MaxInt64) }},
		{"infinite rate factor", "rate factor", func(l *Link) {
			l.SetRateScale(math.Inf(1))
			l.Send(&Packet{Payload: page}, nil)
		}},
		{"huge rate factor", "rate factor", func(l *Link) {
			l.SetRateScale(1e300)
			l.Send(&Packet{Payload: page}, nil)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := simx.NewEngine()
			l := NewLink(eng, "rc->sw0", 4_000_000_000, 100, 4, &sink{autoACK: true})
			l.Send(&Packet{Payload: page}, nil) // the wire is busy until 1030
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "rc->sw0") || !strings.Contains(msg, c.want) {
					t.Fatalf("panic %v does not name the link and %q", r, c.want)
				}
				if l.busyUntil != 1030 {
					t.Errorf("busyUntil moved to %v", l.busyUntil)
				}
			}()
			c.do(l)
		})
	}
}
