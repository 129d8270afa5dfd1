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
//
// done hears the outcome exactly once, synchronously when the move is
// refused or needs nothing.
func (a *Array) MigratePage(lpn int64, dst topo.FIMMID, shadow bool, done Migrated) {
	src, ok := a.ftl.Lookup(lpn)
	if !ok {
		done.OnMigrated(lpn, ErrUnmapped)
		return
	}
	if src.FIMMID() == dst {
		done.OnMigrated(lpn, nil) // already there
		return
	}
	if a.faultsArmed && !a.health.Placeable(dst) {
		// Refuse before Relocate: allocating on faulted hardware would
		// lose the page when its flush fails.
		done.OnMigrated(lpn, fmt.Errorf("array: migrate of %d to unplaceable %v", lpn, dst))
		return
	}

	m := &migration{arr: a, lpn: lpn, src: src, dst: dst, done: done}
	a.moving++
	if shadow || a.buffered(src) {
		// Shadow cloning, or the page's data is still buffered in the
		// source endpoint: either way no device read is needed.
		m.transfer()
		return
	}
	// Naive migration: read the source page from flash first.
	a.Endpoint(src.ClusterID()).Submit(a.command(cluster.OpRead, src, m))
}

// Migrated receives the outcome of a MigratePage call.
type Migrated interface {
	OnMigrated(lpn int64, err error)
}

// migration is one page move past MigratePage's synchronous checks: the
// typed receiver of its source read and destination program.
type migration struct {
	arr  *Array
	lpn  int64
	src  topo.PPN
	dst  topo.FIMMID
	done Migrated
	prog *cluster.Command // destination program parked at its block's gate
}

// OnCommandDone implements cluster.DoneH for the source read and the
// destination program.
func (m *migration) OnCommandDone(c *cluster.Command) {
	err := c.Result.Err
	if c.Op == cluster.OpRead {
		m.arr.cmdPool.Put(c) // background reads retire at completion
		if err != nil {
			m.report(fmt.Errorf("array: migration read: %w", err))
			return
		}
		m.transfer()
		return
	}
	// The destination program; OnCommandFlushed recycles the command.
	if err != nil {
		m.report(fmt.Errorf("array: migration write: %w", err))
		return
	}
	m.arr.migrations++
	m.report(nil)
}

// report ends the move.
func (m *migration) report(err error) {
	m.arr.moving--
	m.done.OnMigrated(m.lpn, err)
}

// transfer relocates the mapping and moves the staged data to dst.
func (m *migration) transfer() {
	a := m.arr
	wa, err := a.ftl.Relocate(m.lpn, m.dst)
	if errors.Is(err, ftl.ErrNoSpace) {
		a.runGCNow(m.dst)
		wa, err = a.ftl.Relocate(m.lpn, m.dst)
	}
	if err != nil {
		m.report(fmt.Errorf("array: migration allocation: %w", err))
		return
	}
	a.markStaleDevice(wa.Old)
	m.prog = a.command(cluster.OpWrite, wa.New, m)
	a.launchProgram(a.trackFlush(wa.New, m.prog), m)
}

// launch implements launcher: the destination block's gate lets the
// program go.
func (m *migration) launch() {
	a := m.arr
	cmd := m.prog
	m.prog = nil
	dst := cmd.FlushPPN.ClusterID()
	if m.src.ClusterID() == dst {
		// Reshaping within the cluster: the data never leaves the
		// endpoint; the write path (bus + program) is the whole cost.
		a.Endpoint(dst).Submit(cmd)
		return
	}
	// Peer-to-peer clone across the fabric: the cloned page rides a
	// posted write from the source endpoint to the destination cluster,
	// sharing links and switch buffers with host traffic. The clone
	// packet recycles on arrival at the destination endpoint.
	pkt := a.pktPool.Get()
	pkt.Kind = pcie.MemWrite
	pkt.Addr = dst.Addr()
	pkt.Payload = a.cfg.Geometry.Nand.PageSizeBytes
	pkt.Meta = cmd
	a.Endpoint(m.src.ClusterID()).Forward(pkt)
}
