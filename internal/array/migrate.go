package array

import (
	"errors"
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/ftl"
	"triplea/internal/pcie"
	"triplea/internal/topo"
)

// ErrUnmapped reports a migration request for an LPN with no data.
var ErrUnmapped = errors.New("array: migrate of unmapped LPN")

// MigratePage moves one logical page's data to dst — the mechanism
// behind both autonomic data migration (hot-cluster relief) and
// data-layout reshaping (laggard relief).
//
// With shadow=false the move is a naive migration: the source page is
// read from flash first, contending for the source FIMM, its channel
// and the cluster bus — the overhead Figure 16b shows. With shadow=true
// (shadow cloning) the data was just staged in the source endpoint to
// serve a host read, so the device read is skipped and only the
// endpoint-to-endpoint fabric transfer and the destination write remain
// (Figure 16c).
//
// Cross-cluster moves travel the PCI-E fabric as peer-to-peer writes
// through the shared switch, contending with host traffic; intra-cluster
// moves (reshaping) stay on the cluster's local resources.
func (a *Array) MigratePage(lpn int64, dst topo.FIMMID, shadow bool, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	src, ok := a.ftl.Lookup(lpn)
	if !ok {
		done(ErrUnmapped)
		return
	}
	if src.FIMMID() == dst {
		done(nil) // already there
		return
	}
	if a.faultsArmed && !a.health.Placeable(dst) {
		// Refuse before Relocate: allocating on faulted hardware would
		// lose the page when its flush fails.
		done(fmt.Errorf("array: migrate of %d to unplaceable %v", lpn, dst))
		return
	}

	transfer := func() { a.transferPage(lpn, src, dst, done) }
	if shadow || a.buffered(src) {
		// Shadow cloning, or the page's data is still buffered in the
		// source endpoint: either way no device read is needed.
		transfer()
		return
	}
	// Naive migration: read the source page from flash first.
	ep := a.Endpoint(src.ClusterID())
	readCmd := a.cmdPool.Get()
	readCmd.Op = cluster.OpRead
	readCmd.FIMM, readCmd.Pkg = src.FIMMSlot(), src.Pkg()
	readCmd.SetPageAddr(src.NandAddr(&a.cfg.Geometry))
	readCmd.Background = true
	readCmd.OnComplete = func(c *cluster.Command) {
		err := c.Result.Err
		a.cmdPool.Put(c) // background reads retire at completion
		if err != nil {
			done(fmt.Errorf("array: migration read: %w", err))
			return
		}
		transfer()
	}
	ep.Submit(readCmd)
}

// transferPage relocates the mapping and moves the staged data to dst.
func (a *Array) transferPage(lpn int64, src topo.PPN, dst topo.FIMMID, done func(error)) {
	wa, err := a.ftl.Relocate(lpn, dst)
	if errors.Is(err, ftl.ErrNoSpace) {
		a.runGCNow(dst)
		wa, err = a.ftl.Relocate(lpn, dst)
	}
	if err != nil {
		done(fmt.Errorf("array: migration allocation: %w", err))
		return
	}
	a.markStaleDevice(wa.Old)

	finish := func(c *cluster.Command) {
		if c.Result.Err != nil {
			done(fmt.Errorf("array: migration write: %w", c.Result.Err))
			return
		}
		a.migrations++
		done(nil)
	}
	writeCmd := a.cmdPool.Get()
	writeCmd.Op = cluster.OpWrite
	writeCmd.FIMM, writeCmd.Pkg = wa.New.FIMMSlot(), wa.New.Pkg()
	writeCmd.SetPageAddr(wa.New.NandAddr(&a.cfg.Geometry))
	writeCmd.Background = true
	// OnCommandFlushed recycles the command; OnComplete only reports.
	writeCmd.OnComplete = finish
	buf := a.trackFlush(wa.New, writeCmd)

	if src.ClusterID() == wa.New.ClusterID() {
		// Reshaping within the cluster: the data never leaves the
		// endpoint; the write path (bus + program) is the whole cost.
		a.launchProgram(buf, funcLauncher(func() {
			a.Endpoint(wa.New.ClusterID()).Submit(writeCmd)
		}))
		return
	}
	// Peer-to-peer clone across the fabric: the cloned page rides a
	// posted write from the source endpoint to the destination cluster,
	// sharing links and switch buffers with host traffic. The clone
	// packet recycles on arrival at the destination endpoint.
	a.launchProgram(buf, funcLauncher(func() {
		pkt := a.pktPool.Get()
		pkt.Kind = pcie.MemWrite
		pkt.Addr = routeAddr(wa.New.ClusterID())
		pkt.Payload = a.cfg.Geometry.Nand.PageSizeBytes
		pkt.Meta = writeCmd
		a.Endpoint(src.ClusterID()).Forward(pkt)
	}))
}
