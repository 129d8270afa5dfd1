package pcie

import (
	"fmt"

	"triplea/internal/simx"
)

// RouteFunc decides the egress for a packet: a non-negative downstream
// port index, or Upstream to head toward the root complex.
type RouteFunc func(pkt *Packet) int

// Upstream is the RouteFunc result that sends a packet toward the RC.
const Upstream = -1

// Switch is a PCI-E switch: one upstream virtual bridge and a set of
// downstream bridges, joined by an internal bus. Packets are held in the
// ingress VC buffer (the arriving link's credit) until the egress link
// accepts them; that holding time is the switch-level queue stall the
// paper measures.
type Switch struct {
	eng          *simx.Engine
	name         string
	routeLatency simx.Time
	route        RouteFunc

	up   *Link
	down []*Link

	freeF *fwd // recycled forwarding nodes

	// Statistics.
	forwarded  uint64
	queueStall simx.Time
}

// fwd is the pooled per-packet forwarding state: it rides the
// route-latency event (simx.Handler), then holds the ingress credit
// until the egress link accepts the packet (Accepted).
type fwd struct {
	s          *Switch
	pkt        *Packet
	from       *Link
	held       simx.Time
	credBefore simx.Time
	next       *fwd
	ck         simx.PoolCheck
}

// OnEvent implements simx.Handler: routing latency elapsed; forward.
func (f *fwd) OnEvent(arg uint64) {
	s := f.s
	pkt := f.pkt
	pkt.RouteTime += s.routeLatency
	port := s.route(pkt)
	var egress *Link
	if port == Upstream {
		egress = s.up
	} else if port >= 0 && port < len(s.down) {
		egress = s.down[port]
	}
	if egress == nil {
		panic(fmt.Sprintf("pcie: %s has no egress for %v (port %d)", s.name, pkt, port))
	}
	f.held = s.eng.Now()
	f.credBefore = pkt.CreditWait
	egress.Send(pkt, f)
}

// OnLinkAccepted implements Accepted: the egress took the packet, so
// the ingress VC entry frees up.
func (f *fwd) OnLinkAccepted(pkt *Packet) {
	s := f.s
	// Holding time excluding the egress credit wait (the link already
	// accounts that in CreditWait).
	stall := (s.eng.Now() - f.held) - (pkt.CreditWait - f.credBefore)
	pkt.QueueWait += stall
	s.queueStall += stall
	s.forwarded++
	from := f.from
	s.recycleFwd(f)
	if from != nil {
		from.ReturnCredit()
	}
}

func (s *Switch) newFwd(pkt *Packet, from *Link) *fwd {
	f := s.freeF
	if f != nil {
		s.freeF = f.next
		f.ck.Checkout("pcie.fwd")
		f.next = nil
	} else {
		f = &fwd{s: s}
		f.ck.Fresh("pcie.fwd")
	}
	f.pkt, f.from = pkt, from
	return f
}

func (s *Switch) recycleFwd(f *fwd) {
	f.pkt, f.from = nil, nil
	f.ck.Release("pcie.fwd")
	f.next = s.freeF
	s.freeF = f
}

// NewSwitch builds a switch. Links are attached afterwards with
// SetUpstream/AddDownstream (topology wiring happens in the array layer).
func NewSwitch(eng *simx.Engine, name string, routeLatency simx.Time, route RouteFunc) *Switch {
	if route == nil {
		panic("pcie: switch needs a route function")
	}
	return &Switch{eng: eng, name: name, routeLatency: routeLatency, route: route}
}

// Name reports the switch's diagnostic name.
func (s *Switch) Name() string { return s.name }

// SetUpstream attaches the egress link toward the root complex.
func (s *Switch) SetUpstream(l *Link) { s.up = l }

// AddDownstream attaches an egress link toward an endpoint, returning
// its port index.
func (s *Switch) AddDownstream(l *Link) int {
	s.down = append(s.down, l)
	return len(s.down) - 1
}

// Forwarded reports how many packets the switch has routed.
func (s *Switch) Forwarded() uint64 { return s.forwarded }

// QueueStallNS reports total time packets spent held in this switch
// waiting for their egress link.
func (s *Switch) QueueStallNS() simx.Time { return s.queueStall }

// Receive implements Receiver: route after the switching latency, then
// forward; the ingress credit is returned when the egress accepts.
func (s *Switch) Receive(pkt *Packet, from *Link) {
	s.eng.ScheduleEvent(s.routeLatency, s.newFwd(pkt, from), 0)
}

var _ Receiver = (*Switch)(nil)
