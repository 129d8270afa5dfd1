// Package pcie models the PCI Express fabric that interconnects the
// flash clusters: dual-simplex point-to-point links with credit-based
// virtual-channel flow control, multi-port switches with address
// routing, and a multi-port root complex. The model captures what the
// paper's simulator captures (Section 5.1): data-movement delay on
// every hop, switching/routing latencies, and the contention cycles
// requests spend stalled in virtual-channel queues.
package pcie

import (
	"fmt"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// Kind classifies a transaction-layer packet.
type Kind uint8

const (
	MemRead    Kind = iota // read request (no payload)
	MemWrite               // posted write (carries payload)
	Completion             // completion with or without data
)

func (k Kind) String() string {
	switch k {
	case MemRead:
		return "MemRd"
	case MemWrite:
		return "MemWr"
	case Completion:
		return "Cpl"
	default:
		return "?"
	}
}

// Packet is one transaction-layer packet moving through the fabric.
// Timing accumulators record where the packet spent its life; the array
// layer folds them into per-request breakdowns.
type Packet struct {
	ID      uint64
	Kind    Kind
	Addr    uint64      // routing address
	Payload units.Bytes // payload size (0 for requests / dataless completions)
	Meta    any         // opaque cargo for the endpoint/array layers

	// Accumulated timing across all hops.
	CreditWait simx.Time // stalled waiting for receiver VC credit
	WireWait   simx.Time // stalled waiting for the local wire
	WireTime   simx.Time // serialisation time on wires
	RouteTime  simx.Time // switch/RC routing latencies

	// Hop state. A packet is on at most one link and held by at most
	// one switch at a time, so one set of fields serves every hop, and
	// the packet itself is its link's delivery event (linkHop). A hop
	// reads what it needs before it hands the packet on: the next hop
	// overwrites these fields.
	link     *Link     // the link carrying the packet
	ready    simx.Time // when it may take link's wire: its credit and wire waits count from here
	accepted Accepted  // notified when link takes the packet
	from     *Link     // ingress link whose credit the holding switch returns

	next *Packet        // credit-wait queue on link, or free-list link in a Pool
	ck   simx.PoolCheck // pooled-lifecycle guard; empty unless -tags simcheck
}

// StallTotal reports all time the packet spent not moving.
func (p *Packet) StallTotal() simx.Time {
	return p.CreditWait + p.WireWait
}

func (p *Packet) String() string {
	return fmt.Sprintf("%v#%d addr=%#x payload=%dB", p.Kind, p.ID, p.Addr, p.Payload)
}
