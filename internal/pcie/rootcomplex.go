package pcie

import (
	"fmt"

	"triplea/internal/simx"
)

// RootComplex generates transactions on behalf of the host and routes
// packets between its ports. Downstream it forwards host requests to
// the switch selected by a route function; upstream it hands arriving
// completions to the host sink. Both directions take its internal
// routing latency.
type RootComplex struct {
	eng          *simx.Engine
	routeLatency simx.Time
	route        RouteFunc
	deliver      func(pkt *Packet)
	ports        []*Link // one downstream link per switch

	injected  uint64
	delivered uint64
}

// NewRootComplex builds a root complex. route selects the downstream
// port for injected packets; deliver receives upstream packets (host
// side) after routing latency.
func NewRootComplex(eng *simx.Engine, routeLatency simx.Time, route RouteFunc, deliver func(pkt *Packet)) *RootComplex {
	if route == nil || deliver == nil {
		panic("pcie: root complex needs route and deliver functions")
	}
	return &RootComplex{eng: eng, routeLatency: routeLatency, route: route, deliver: deliver}
}

// RouteLatency implements Router: the routing latency a link into the
// RC waits out before delivery.
func (rc *RootComplex) RouteLatency() simx.Time { return rc.routeLatency }

// AddPort attaches a downstream link to a switch, returning its index.
func (rc *RootComplex) AddPort(l *Link) int {
	rc.ports = append(rc.ports, l)
	return len(rc.ports) - 1
}

// NumPorts reports the downstream port count.
func (rc *RootComplex) NumPorts() int { return len(rc.ports) }

// Inject sends a host-originated packet downstream. It routes at once
// and hands the packet to its port not before one routing latency from
// now, the instant its credit and wire waits count from. Only the RC
// sends on its ports, in injection order, so taking the port's credit
// now rather than then changes no packet's credit wait.
func (rc *RootComplex) Inject(pkt *Packet) {
	port := rc.route(pkt)
	if port < 0 || port >= len(rc.ports) {
		panic(fmt.Sprintf("pcie: rc has no egress for %v (port %d)", pkt, port))
	}
	pkt.RouteTime += rc.routeLatency
	rc.ports[port].sendAt(pkt, rc, rc.eng.Now()+rc.routeLatency)
}

// OnLinkAccepted implements Accepted: an injected packet left the RC.
func (rc *RootComplex) OnLinkAccepted(*Packet) { rc.injected++ }

// Receive implements Receiver for upstream packets arriving from
// switches: the routing latency elapsed on the link, so the VC credit
// returns and the packet is consumed into host memory now.
func (rc *RootComplex) Receive(pkt *Packet, from *Link) {
	if from != nil {
		from.ReturnCredit()
	}
	rc.delivered++
	rc.deliver(pkt)
}

// Injected reports packets sent downstream.
func (rc *RootComplex) Injected() uint64 { return rc.injected }

// Delivered reports packets handed to the host sink.
func (rc *RootComplex) Delivered() uint64 { return rc.delivered }

// QueueStallNS reports 0: a packet goes to its port the instant it is
// injected, so its whole hold is the port's credit wait, which that
// link's CreditStallNS counts.
func (rc *RootComplex) QueueStallNS() simx.Time { return 0 }

var (
	_ Receiver = (*RootComplex)(nil)
	_ Router   = (*RootComplex)(nil)
)
