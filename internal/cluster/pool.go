package cluster

// CommandPool is a single-threaded intrusive free-list of Command
// objects, mirroring pcie.Pool for packets. The array layer draws one
// command per page operation and returns it at the operation's single
// release point (delivery for reads, flush retirement for writes).
// Plain single-threaded state, not sync.Pool: the simulation runs on
// one goroutine.
type CommandPool struct {
	free *Command
}

// Get pops a recycled command (zeroed) or allocates a fresh one.
func (p *CommandPool) Get() *Command {
	c := p.free
	if c == nil {
		c = &Command{}
		c.ck.Fresh("cluster.Command")
		return c
	}
	p.free = c.next
	c.ck.Checkout("cluster.Command")
	*c = Command{}
	return c
}

// Put returns a command to the free-list. The caller must not touch
// the command afterwards; under `-tags simcheck` the embedded guard
// panics on double-Put and use-after-Put.
func (p *CommandPool) Put(c *Command) {
	if c == nil {
		panic("cluster: Put of nil command")
	}
	c.ck.Release("cluster.Command")
	c.Meta, c.Done, c.Flushed = nil, nil, nil
	c.Addrs = nil
	c.ep, c.from = nil, nil
	c.next = p.free
	p.free = c
}
