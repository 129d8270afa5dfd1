package pcie

import (
	"fmt"

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

// Accepted is notified when a packet wins a credit and leaves the
// sender's buffer — the moment an upstream device can free its own
// ingress entry. It is an interface rather than a func so hot callers
// (switches, the RC, the endpoints) can hand in an object that already
// exists, such as the packet's own hold, without allocating a closure
// per hop.
type Accepted interface {
	OnLinkAccepted(pkt *Packet)
}

// Link is one direction of a dual-simplex PCI-E connection. The sender
// serialises packets onto the wire; the receiver advertises a fixed
// number of virtual-channel buffer credits. With no credit available,
// packets wait at the sender — that waiting is the link-level stall the
// paper's flow-control discussion describes.
type Link struct {
	eng  *simx.Engine
	name string

	bytesPerSec units.BytesPerSec
	propagation simx.Time

	wire    *simx.Resource
	credits int
	maxCred int
	dst     Receiver

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

// linkHop is a packet crossing a link: it acquires the wire
// (simx.Grantee), then rides the serialisation and propagation events
// (simx.Handler) to the receiver. Its state is the packet's link fields.
type linkHop Packet

// linkHop event phases.
const (
	hopXferDone uint64 = iota // wire serialisation finished
	hopDeliver                // propagation finished; hand to receiver
)

// OnGrant implements simx.Grantee: the local wire is ours.
func (h *linkHop) OnGrant(_ uint64, waited simx.Time) {
	l := h.link
	xfer := l.TransferTime(h.Payload)
	h.WireWait += waited
	h.WireTime += xfer
	l.eng.ScheduleEvent(xfer, h, hopXferDone)
}

// OnEvent implements simx.Handler for the transmission phases.
func (h *linkHop) OnEvent(arg uint64) {
	l := h.link
	switch arg {
	case hopXferDone:
		l.wire.Release()
		l.packets++
		l.bytes += h.Payload + TLPOverheadBytes
		l.eng.ScheduleEvent(l.propagation, h, hopDeliver)
	case hopDeliver:
		l.dst.Receive((*Packet)(h), l)
	default:
		panic("pcie: unknown linkHop phase")
	}
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
	return &Link{
		eng:         eng,
		name:        name,
		bytesPerSec: bytesPerSec,
		propagation: propagation,
		wire:        simx.NewResource(eng, name+".wire", 1),
		credits:     credits,
		maxCred:     credits,
		dst:         dst,
	}
}

// Name reports the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// TransferTime reports serialisation time for a packet with n payload
// bytes (TLP overhead included), rounded up to whole nanoseconds.
func (l *Link) TransferTime(n units.Bytes) simx.Time {
	t := units.TransferTime(n+TLPOverheadBytes, l.bytesPerSec)
	if l.rateScale > 0 {
		t = simx.Time(float64(t) * l.rateScale)
	}
	return t
}

// Send transmits pkt toward the receiver. accepted (optional) fires when
// the packet wins a credit and leaves the sender's buffer — the moment a
// switch can free its own ingress entry. Delivery to the receiver
// happens after wire serialisation plus propagation.
func (l *Link) Send(pkt *Packet, accepted Accepted) {
	if pkt == nil {
		panic("pcie: Send of nil packet")
	}
	pkt.ck.InUse("pcie.Packet")
	pkt.link, pkt.queued, pkt.accepted = l, l.eng.Now(), accepted
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
		stalled := l.eng.Now() - pkt.queued
		pkt.CreditWait += stalled
		l.creditStall += stalled
		l.transmit(pkt)
		return
	}
	l.credits++
	if l.credits > l.maxCred {
		panic("pcie: credit overflow on " + l.name)
	}
}

func (l *Link) transmit(pkt *Packet) {
	if pkt.accepted != nil {
		pkt.accepted.OnLinkAccepted(pkt)
	}
	l.wire.AcquireG((*linkHop)(pkt), 0)
}

// CreditsAvailable reports the sender-visible free credit count.
func (l *Link) CreditsAvailable() int { return l.credits }

// PendingSends reports packets stalled for credits.
func (l *Link) PendingSends() int { return l.sendLen }

// Packets reports how many packets completed wire serialisation.
func (l *Link) Packets() uint64 { return l.packets }

// Bytes reports total bytes serialised (overhead included).
func (l *Link) Bytes() units.Bytes { return l.bytes }

// CreditStallNS reports accumulated credit-stall time.
func (l *Link) CreditStallNS() simx.Time { return l.creditStall }

// BusyNS reports the wire's accumulated busy time.
func (l *Link) BusyNS() simx.Time { return l.wire.BusyNS() }

// UtilizationSince reports wire utilisation over a window (see
// simx.Resource.UtilizationSince).
func (l *Link) UtilizationSince(since simx.Time, busyAtSince simx.Time) float64 {
	return l.wire.UtilizationSince(since, busyAtSince)
}
