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

	// Statistics.
	forwarded  uint64
	queueStall simx.Time
}

// fwd is a packet held in a switch or in the RC's downstream half: it
// rides the route-latency event (simx.Handler), then holds its ingress
// credit until the egress link accepts it (Accepted). Its state is the
// packet's hold fields.
type fwd Packet

// OnEvent implements simx.Handler: routing latency elapsed; forward.
func (f *fwd) OnEvent(uint64) {
	s := f.sw
	pkt := (*Packet)(f)
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
	pkt.held = s.eng.Now()
	pkt.credBefore = pkt.CreditWait
	egress.Send(pkt, f)
}

// OnLinkAccepted implements Accepted: the egress took the packet, so
// the ingress VC entry frees up.
func (f *fwd) OnLinkAccepted(pkt *Packet) {
	s, from, done := pkt.sw, pkt.from, pkt.done
	// Holding time excluding the egress credit wait (the link already
	// accounts that in CreditWait).
	stall := (s.eng.Now() - pkt.held) - (pkt.CreditWait - pkt.credBefore)
	pkt.QueueWait += stall
	s.queueStall += stall
	s.forwarded++
	if from != nil {
		from.ReturnCredit()
	}
	if done != nil {
		done.OnLinkAccepted(pkt)
	}
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
func (s *Switch) Receive(pkt *Packet, from *Link) { s.hold(pkt, from, nil) }

// hold takes pkt in: after the routing latency it is sent to its egress
// link, and when that link accepts it, from (if any) gets its credit
// back and done (if any) is notified.
func (s *Switch) hold(pkt *Packet, from *Link, done Accepted) {
	pkt.sw, pkt.from, pkt.done = s, from, done
	s.eng.ScheduleEvent(s.routeLatency, (*fwd)(pkt), 0)
}

var _ Receiver = (*Switch)(nil)
