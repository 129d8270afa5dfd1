package pcie

import (
	"fmt"

	"triplea/internal/simx"
)

// RootComplex generates transactions on behalf of the host and routes
// packets between its ports. Downstream it forwards host requests to
// the switch selected by a route function; upstream it hands arriving
// completions to the host sink after its internal routing latency.
type RootComplex struct {
	eng          *simx.Engine
	routeLatency simx.Time
	route        RouteFunc // selects the switch port for a downstream packet
	ports        []*Link   // downstream links to switches
	deliver      func(pkt *Packet)

	freeOp *rcOp // recycled routing nodes

	injected   uint64
	delivered  uint64
	queueStall simx.Time
}

// rcOp is the pooled per-packet routing state for both directions: an
// injected packet rides the route-latency event (simx.Handler), then
// waits for its port to accept it (Accepted); an upstream packet rides
// the same event type with a different phase argument.
type rcOp struct {
	rc         *RootComplex
	pkt        *Packet
	from       *Link
	done       Accepted
	held       simx.Time
	credBefore simx.Time
	next       *rcOp
	ck         simx.PoolCheck
}

// rcOp event phases.
const (
	rcInjectRoute  uint64 = iota // downstream: route then Send
	rcReceiveRoute               // upstream: route then deliver to host
)

// OnEvent implements simx.Handler for the two routing directions.
func (n *rcOp) OnEvent(arg uint64) {
	rc := n.rc
	switch arg {
	case rcInjectRoute:
		pkt := n.pkt
		pkt.RouteTime += rc.routeLatency
		port := rc.route(pkt)
		if port < 0 || port >= len(rc.ports) {
			panic(fmt.Sprintf("pcie: RC route for %v returned bad port %d", pkt, port))
		}
		n.held = rc.eng.Now()
		n.credBefore = pkt.CreditWait
		rc.ports[port].Send(pkt, n)
	case rcReceiveRoute:
		pkt, from := n.pkt, n.from
		rc.recycleOp(n)
		pkt.RouteTime += rc.routeLatency
		if from != nil {
			from.ReturnCredit()
		}
		rc.delivered++
		rc.deliver(pkt)
	default:
		panic("pcie: unknown rcOp phase")
	}
}

// OnLinkAccepted implements Accepted: the selected port took the
// injected packet; charge the RC queue stall and chain to the caller.
func (n *rcOp) OnLinkAccepted(pkt *Packet) {
	rc := n.rc
	// Holding time excluding the port's credit wait, which the link
	// accounts separately.
	stall := (rc.eng.Now() - n.held) - (pkt.CreditWait - n.credBefore)
	pkt.QueueWait += stall
	rc.queueStall += stall
	rc.injected++
	done := n.done
	rc.recycleOp(n)
	if done != nil {
		done.OnLinkAccepted(pkt)
	}
}

func (rc *RootComplex) newOp(pkt *Packet) *rcOp {
	n := rc.freeOp
	if n != nil {
		rc.freeOp = n.next
		n.ck.Checkout("pcie.rcOp")
		n.next = nil
	} else {
		n = &rcOp{rc: rc}
		n.ck.Fresh("pcie.rcOp")
	}
	n.pkt = pkt
	return n
}

func (rc *RootComplex) recycleOp(n *rcOp) {
	n.pkt, n.from, n.done = nil, nil, nil
	n.ck.Release("pcie.rcOp")
	n.next = rc.freeOp
	rc.freeOp = n
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

// AddPort attaches a downstream link to a switch, returning its index.
func (rc *RootComplex) AddPort(l *Link) int {
	rc.ports = append(rc.ports, l)
	return len(rc.ports) - 1
}

// NumPorts reports the downstream port count.
func (rc *RootComplex) NumPorts() int { return len(rc.ports) }

// Inject sends a host-originated packet downstream. done (optional)
// fires when the packet is accepted onto the selected port — until then
// it occupies the RC's internal queue, and the caller charges RC stall.
func (rc *RootComplex) Inject(pkt *Packet, done Accepted) {
	pkt.ck.InUse("pcie.Packet")
	n := rc.newOp(pkt)
	n.done = done
	rc.eng.ScheduleEvent(rc.routeLatency, n, rcInjectRoute)
}

// Receive implements Receiver for upstream packets arriving from
// switches: the packet is consumed into host memory after the routing
// latency and its VC credit returns immediately thereafter.
func (rc *RootComplex) Receive(pkt *Packet, from *Link) {
	n := rc.newOp(pkt)
	n.from = from
	rc.eng.ScheduleEvent(rc.routeLatency, n, rcReceiveRoute)
}

// Injected reports packets sent downstream.
func (rc *RootComplex) Injected() uint64 { return rc.injected }

// Delivered reports packets handed to the host sink.
func (rc *RootComplex) Delivered() uint64 { return rc.delivered }

// QueueStallNS reports time injected packets waited for port acceptance.
func (rc *RootComplex) QueueStallNS() simx.Time { return rc.queueStall }

var _ Receiver = (*RootComplex)(nil)
