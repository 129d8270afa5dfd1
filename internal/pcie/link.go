package pcie

import (
	"fmt"
	"math"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// TLPOverheadBytes is the per-packet framing cost: transaction-layer
// header (16), sequence number + LCRC (8) — the fields the endpoint's
// device layers strip and rebuild.
const TLPOverheadBytes = 24 * units.Byte

// Gen3LaneBandwidth is the effective data rate of one PCI Express 3.0
// lane: 8 GT/s with 128b/130b encoding, ~1 GB/s of TLP bytes.
const Gen3LaneBandwidth = 1 * units.GBps

// Gen3Bandwidth reports the raw bandwidth of a PCI-E 3.0 link n lanes
// wide (x4, x16, ...).
func Gen3Bandwidth(n units.Lanes) units.BytesPerSec {
	return units.LaneBandwidth(Gen3LaneBandwidth, n)
}

// Receiver consumes packets delivered by a Link. Implementations must
// eventually call from.ReturnCredit() once the packet's buffer entry is
// freed, or the link stalls — exactly like real VC flow control.
type Receiver interface {
	Receive(pkt *Packet, from *Link)
}

// Router is a receiver that routes what it receives: a Switch or the
// RootComplex. A link into a Router waits out its routing latency
// before delivery, so the router's Receive routes at once.
type Router interface {
	RouteLatency() simx.Time
}

// Accepted is notified when a packet wins a credit and leaves the
// sender's buffer — the moment an upstream device can free its own
// ingress entry. It is an interface rather than a func so hot callers
// (switches, the RC, the endpoints) can hand in an object that already
// exists without allocating a closure per hop.
type Accepted interface {
	OnLinkAccepted(pkt *Packet)
}

// Link is one direction of a dual-simplex PCI-E connection. The sender
// serialises packets onto the wire; the receiver advertises a fixed
// number of virtual-channel buffer credits. With no credit available,
// packets wait at the sender — that waiting is the link-level stall the
// paper's flow-control discussion describes.
//
// The wire is a FIFO server booked ahead. A packet that wins a credit
// takes the wire at the first instant it is free (busyUntil), and its
// one event is its delivery, once serialisation, propagation and the
// receiver's routing latency have elapsed.
type Link struct {
	eng  *simx.Engine
	name string

	bytesPerSec units.BytesPerSec
	propagation simx.Time
	route       simx.Time // the receiver's routing latency (Router), else 0

	busyUntil simx.Time // end of the last transfer or retrain window booked
	busy      simx.Time // wire time booked so far
	credits   int
	maxCred   int
	dst       Receiver

	// Credit-stalled sends, FIFO, linked through Packet.next.
	sendHead *Packet
	sendTail *Packet
	sendLen  int

	// rateScale > 0 stretches serialisation time — an injected link
	// degradation, e.g. lanes trained down after an error (fault.go).
	rateScale float64

	// Statistics.
	packets     uint64
	bytes       units.Bytes
	creditStall simx.Time
}

// linkHop is a packet crossing a link: its one event is its delivery to
// the receiver (simx.Handler). Its state is the packet's link fields.
type linkHop Packet

// OnEvent implements simx.Handler: the packet reaches the receiver.
func (h *linkHop) OnEvent(uint64) {
	l := h.link
	l.packets++
	l.bytes += h.Payload + TLPOverheadBytes
	l.dst.Receive((*Packet)(h), l)
}

// NewLink builds a link delivering to dst with the given raw bandwidth,
// propagation delay and receiver credit count.
func NewLink(eng *simx.Engine, name string, bytesPerSec units.BytesPerSec, propagation simx.Time, credits int, dst Receiver) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("pcie: link %s bandwidth must be positive", name))
	}
	if credits < 1 {
		panic(fmt.Sprintf("pcie: link %s needs at least one credit", name))
	}
	if dst == nil {
		panic(fmt.Sprintf("pcie: link %s has no receiver", name))
	}
	l := &Link{
		eng:         eng,
		name:        name,
		bytesPerSec: bytesPerSec,
		propagation: propagation,
		credits:     credits,
		maxCred:     credits,
		dst:         dst,
	}
	if r, ok := dst.(Router); ok {
		l.route = r.RouteLatency()
	}
	return l
}

// TransferTime reports serialisation time for a packet with n payload
// bytes (TLP overhead included), rounded up to whole nanoseconds. A
// rate factor that stretches it past simx.Time's range panics.
func (l *Link) TransferTime(n units.Bytes) simx.Time {
	t := units.TransferTime(n+TLPOverheadBytes, l.bytesPerSec)
	if l.rateScale > 0 {
		s := float64(t) * l.rateScale
		if s >= math.MaxInt64 {
			panic(fmt.Sprintf("pcie: link %s: transfer time overflows at rate factor %g", l.name, l.rateScale))
		}
		t = simx.Time(s)
	}
	return t
}

// Send transmits pkt toward the receiver. accepted (optional) fires when
// the packet wins a credit and leaves the sender's buffer — the moment a
// switch can free its own ingress entry. Delivery to the receiver
// happens after wire serialisation, propagation and the receiver's
// routing latency.
func (l *Link) Send(pkt *Packet, accepted Accepted) { l.sendAt(pkt, accepted, l.eng.Now()) }

// sendAt is Send for a packet that may not take the wire before ready
// (>= now): its credit wait and wire wait both count from ready.
func (l *Link) sendAt(pkt *Packet, accepted Accepted, ready simx.Time) {
	if pkt == nil {
		panic("pcie: Send of nil packet")
	}
	pkt.ck.InUse("pcie.Packet")
	pkt.link, pkt.ready, pkt.accepted = l, ready, accepted
	if l.credits > 0 {
		l.credits--
		l.transmit(pkt)
		return
	}
	pkt.next = nil
	if l.sendTail == nil {
		l.sendHead = pkt
	} else {
		l.sendTail.next = pkt
	}
	l.sendTail = pkt
	l.sendLen++
}

// ReturnCredit hands one VC buffer entry back to the sender, releasing
// the oldest stalled packet if any.
func (l *Link) ReturnCredit() {
	if pkt := l.sendHead; pkt != nil {
		if l.sendHead = pkt.next; l.sendHead == nil {
			l.sendTail = nil
		}
		l.sendLen--
		if now := l.eng.Now(); now > pkt.ready {
			stalled := now - pkt.ready
			pkt.CreditWait += stalled
			l.creditStall += stalled
			pkt.ready = now
		}
		l.transmit(pkt)
		return
	}
	l.credits++
	if l.credits > l.maxCred {
		panic("pcie: credit overflow on " + l.name)
	}
}

// transmit puts a packet that won its credit on the wire: it books the
// wire from the packet's ready time and schedules the delivery.
func (l *Link) transmit(pkt *Packet) {
	if pkt.accepted != nil {
		pkt.accepted.OnLinkAccepted(pkt)
	}
	xfer := l.TransferTime(pkt.Payload)
	start := l.book(pkt.ready, xfer)
	pkt.WireWait += start - pkt.ready
	pkt.WireTime += xfer
	pkt.RouteTime += l.route
	l.eng.AtEvent(start+xfer+l.propagation+l.route, (*linkHop)(pkt), 0)
}

// book reserves the wire for d from the first instant at or after ready
// that it is free, behind everything booked before, and reports that
// start. A booking that would run backwards or overflow panics, so
// busyUntil never moves back.
func (l *Link) book(ready, d simx.Time) simx.Time {
	start := max(ready, l.busyUntil)
	if d < 0 || start+d < start {
		panic(fmt.Sprintf("pcie: link %s: cannot book %v of wire time from %v", l.name, d, start))
	}
	l.busyUntil = start + d
	l.busy += d
	return start
}

// CreditsAvailable reports the sender-visible free credit count.
func (l *Link) CreditsAvailable() int { return l.credits }

// PendingSends reports packets stalled for credits.
func (l *Link) PendingSends() int { return l.sendLen }

// Packets reports how many packets the link has delivered.
func (l *Link) Packets() uint64 { return l.packets }

// Bytes reports total bytes delivered (overhead included).
func (l *Link) Bytes() units.Bytes { return l.bytes }

// CreditStallNS reports accumulated credit-stall time.
func (l *Link) CreditStallNS() simx.Time { return l.creditStall }

// BusyNS reports the wire time booked so far less what lies ahead of
// now: exact once the wire is idle, and never above the busy time
// elapsed (an idle gap booked ahead of now makes it read low).
func (l *Link) BusyNS() simx.Time {
	return max(l.busy-max(l.busyUntil-l.eng.Now(), 0), 0)
}
