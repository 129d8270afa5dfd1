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
// downstream bridges, joined by an internal bus. A packet arrives once
// its ingress link has waited out the switch's routing latency (Router),
// goes to its egress link at once, and holds its ingress VC buffer entry
// (the arriving link's credit) until the egress link accepts it.
type Switch struct {
	name         string
	routeLatency simx.Time
	route        RouteFunc

	up   *Link
	down []*Link

	// Statistics.
	forwarded uint64
}

// NewSwitch builds a switch. It schedules nothing, so it ignores the
// engine: its links wait out its routing latency. Links are attached
// afterwards with SetUpstream/AddDownstream (in the array layer).
func NewSwitch(_ *simx.Engine, name string, routeLatency simx.Time, route RouteFunc) *Switch {
	if route == nil {
		panic("pcie: switch needs a route function")
	}
	return &Switch{name: name, routeLatency: routeLatency, route: route}
}

// RouteLatency implements Router: the switching latency a link into the
// switch waits out before delivery.
func (s *Switch) RouteLatency() simx.Time { return s.routeLatency }

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

// QueueStallNS reports 0: a packet goes to its egress link the instant
// it arrives, so its whole hold is egress credit wait, which that
// link's CreditStallNS counts.
func (s *Switch) QueueStallNS() simx.Time { return 0 }

// Receive implements Receiver: the routing latency elapsed on the
// ingress link, so the packet goes to its egress link now; from (if
// any) gets its credit back when that link accepts the packet.
func (s *Switch) Receive(pkt *Packet, from *Link) {
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
	pkt.from = from
	egress.Send(pkt, s)
}

// OnLinkAccepted implements Accepted: the egress took the packet, so
// its ingress VC entry frees up.
func (s *Switch) OnLinkAccepted(pkt *Packet) {
	s.forwarded++
	if pkt.from != nil {
		pkt.from.ReturnCredit()
	}
}

var (
	_ Receiver = (*Switch)(nil)
	_ Router   = (*Switch)(nil)
)
