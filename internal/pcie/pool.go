package pcie

// Pool is a single-threaded intrusive free-list of Packet objects. The
// steady-state hot path recycles a bounded working set of packets
// instead of minting one per request, which is most of what the fabric
// used to allocate. Like every pool in this repository it is plain
// single-threaded state — the simulation runs on one goroutine, so
// sync.Pool would only add cost.
//
// Ownership rule: whoever created a packet via Get decides the single
// release point and calls Put exactly once after the last read of the
// packet's timing accumulators. Under `-tags simcheck` the embedded
// lifecycle guard panics on double-Put and use-after-Put.
type Pool struct {
	free *Packet
}

// Get pops a recycled packet (zeroed) or allocates a fresh one.
func (p *Pool) Get() *Packet {
	pkt := p.free
	if pkt == nil {
		pkt = &Packet{}
		pkt.ck.Fresh("pcie.Packet")
		return pkt
	}
	p.free = pkt.next
	pkt.ck.Checkout("pcie.Packet")
	*pkt = Packet{}
	return pkt
}

// Put returns a packet to the free-list. The caller must not touch the
// packet afterwards.
func (p *Pool) Put(pkt *Packet) {
	if pkt == nil {
		panic("pcie: Put of nil packet")
	}
	pkt.ck.Release("pcie.Packet")
	pkt.Meta = nil
	pkt.next = p.free
	p.free = pkt
}
