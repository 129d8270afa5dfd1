package pcie

import "triplea/internal/simx"

// RootComplex generates transactions on behalf of the host and routes
// packets between its ports. Downstream it forwards host requests to
// the switch selected by a route function; upstream it hands arriving
// completions to the host sink after its internal routing latency.
type RootComplex struct {
	eng          *simx.Engine
	routeLatency simx.Time
	deliver      func(pkt *Packet)

	// down is the downstream half: it routes and holds injected packets
	// exactly as a switch does, with one downstream port per switch and
	// no upstream link. It is a named field, not an embedded one, so
	// Receive stays the upstream path.
	down *Switch

	delivered uint64
}

// rcDeliver is a packet on its way through the RC to the host: it rides
// the route-latency event (simx.Handler), then frees its ingress credit
// and reaches the host sink. Its state is the packet's rc and from.
type rcDeliver Packet

// OnEvent implements simx.Handler: routing latency elapsed; deliver.
func (d *rcDeliver) OnEvent(uint64) {
	rc, from := d.rc, d.from
	d.RouteTime += rc.routeLatency
	if from != nil {
		from.ReturnCredit()
	}
	rc.delivered++
	rc.deliver((*Packet)(d))
}

// NewRootComplex builds a root complex. route selects the downstream
// port for injected packets; deliver receives upstream packets (host
// side) after routing latency.
func NewRootComplex(eng *simx.Engine, routeLatency simx.Time, route RouteFunc, deliver func(pkt *Packet)) *RootComplex {
	if route == nil || deliver == nil {
		panic("pcie: root complex needs route and deliver functions")
	}
	return &RootComplex{
		eng:          eng,
		routeLatency: routeLatency,
		deliver:      deliver,
		down:         NewSwitch(eng, "rc", routeLatency, route),
	}
}

// AddPort attaches a downstream link to a switch, returning its index.
func (rc *RootComplex) AddPort(l *Link) int { return rc.down.AddDownstream(l) }

// NumPorts reports the downstream port count.
func (rc *RootComplex) NumPorts() int { return len(rc.down.down) }

// Inject sends a host-originated packet downstream. done (optional)
// fires when the packet is accepted onto the selected port — until then
// it occupies the RC's internal queue, and the caller charges RC stall.
func (rc *RootComplex) Inject(pkt *Packet, done Accepted) {
	pkt.ck.InUse("pcie.Packet")
	rc.down.hold(pkt, nil, done)
}

// Receive implements Receiver for upstream packets arriving from
// switches: the packet is consumed into host memory after the routing
// latency and its VC credit returns immediately thereafter.
func (rc *RootComplex) Receive(pkt *Packet, from *Link) {
	pkt.rc, pkt.from = rc, from
	rc.eng.ScheduleEvent(rc.routeLatency, (*rcDeliver)(pkt), 0)
}

// Injected reports packets sent downstream.
func (rc *RootComplex) Injected() uint64 { return rc.down.Forwarded() }

// Delivered reports packets handed to the host sink.
func (rc *RootComplex) Delivered() uint64 { return rc.delivered }

// QueueStallNS reports time injected packets waited for port acceptance.
func (rc *RootComplex) QueueStallNS() simx.Time { return rc.down.QueueStallNS() }

var _ Receiver = (*RootComplex)(nil)
