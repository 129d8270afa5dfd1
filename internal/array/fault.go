package array

import (
	"errors"
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/decision"
	"triplea/internal/fimm"
	"triplea/internal/metrics"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/topo"
)

// Degraded-mode glue for fault injection (see internal/fault and
// docs/fault-injection.md). None of this runs on an unfaulted array:
// every hook below is gated on faultsArmed (set by the injector), so
// the golden-replay byte stream is untouched when no plan is attached.

// FaultStats counts degraded-mode activity at the array layer. It is a
// plain value snapshot: the live counts are registry-backed
// (metrics.Counter entries under "fault." in the recorder's registry)
// and reassembled here on query, so the golden replay's %+v rendering
// is stable.
type FaultStats struct {
	RequestsFailed   uint64 // host requests terminated by a fault
	PagesFailed      uint64 // page commands terminated by a fault
	ReadsRemapped    uint64 // lost pages restored out-of-place on read
	WritesRedirected uint64 // host writes steered off faulted hardware
	FlushesDropped   uint64 // buffered writes lost when their flush failed
}

// faultCounters are the live registry-backed fault counters; they sit
// in the same registry as the request metrics, so a registry export
// carries degraded-mode activity alongside latency and throughput.
type faultCounters struct {
	requestsFailed   *metrics.Counter
	pagesFailed      *metrics.Counter
	readsRemapped    *metrics.Counter
	writesRedirected *metrics.Counter
	flushesDropped   *metrics.Counter
}

func newFaultCounters(reg *metrics.Registry) faultCounters {
	return faultCounters{
		requestsFailed:   reg.NewCounter("fault.requests_failed"),
		pagesFailed:      reg.NewCounter("fault.pages_failed"),
		readsRemapped:    reg.NewCounter("fault.reads_remapped"),
		writesRedirected: reg.NewCounter("fault.writes_redirected"),
		flushesDropped:   reg.NewCounter("fault.flushes_dropped"),
	}
}

// Health exposes the array's availability registry. It exists (all
// online) even on unfaulted arrays so callers need no nil checks.
func (a *Array) Health() *topo.Health { return a.health }

// FaultStats reports degraded-mode counters as a value snapshot.
func (a *Array) FaultStats() FaultStats {
	return FaultStats{
		RequestsFailed:   a.faultCtrs.requestsFailed.Value(),
		PagesFailed:      a.faultCtrs.pagesFailed.Value(),
		ReadsRemapped:    a.faultCtrs.readsRemapped.Value(),
		WritesRedirected: a.faultCtrs.writesRedirected.Value(),
		FlushesDropped:   a.faultCtrs.flushesDropped.Value(),
	}
}

// ArmFaults marks the array as running under a fault plan: device
// errors on fault paths terminate requests (recorded as failures)
// instead of panicking. Called by the injector on attach.
func (a *Array) ArmFaults() { a.faultsArmed = true }

// SetFaultRecovery enables autonomic degraded-mode recovery: the FTL
// consults the health registry on placement, host writes are steered
// off faulted hardware, and reads of fault-lost pages are restored
// out-of-place from the host's shadow clones. Off (the default), a
// faulted array keeps its nominal placement and simply fails the
// affected requests — the autonomic-off baseline of the degraded-array
// study.
func (a *Array) SetFaultRecovery(on bool) {
	a.recoverFaults = on
	if on {
		a.ftl.SetHealth(a.health)
	} else {
		a.ftl.SetHealth(nil)
	}
}

// EPLinks returns a cluster's fabric links (down toward the endpoint,
// up toward the switch) — the injector's target for link degradation.
func (a *Array) EPLinks(id topo.ClusterID) (down, up *pcie.Link) {
	return a.epDown[id.Switch][id.Cluster], a.epUp[id.Switch][id.Cluster]
}

// SwitchLinks returns the RC<->switch links for one switch.
func (a *Array) SwitchLinks(sw int) (down, up *pcie.Link) {
	return a.swDown[sw], a.swUp[sw]
}

// isFaultError reports whether a device error was caused by injected
// hardware faults (as opposed to a simulator bug, which must keep
// panicking loudly).
func isFaultError(err error) bool {
	return errors.Is(err, fimm.ErrDead) ||
		errors.Is(err, cluster.ErrUnplugged) ||
		errors.Is(err, nand.ErrBadBlock) ||
		errors.Is(err, nand.ErrDeadDie)
}

// failPage terminates one page command on a fault: the request is
// marked failed, every pooled object the page held is released, and
// the page retires through the normal finishPage accounting (so the
// request still drains and the run never sticks).
func (a *Array) failPage(ref *pageRef, up *pcie.Packet, cmd *cluster.Command) {
	req, down := ref.req, ref.down
	req.failed = true
	a.faultCtrs.pagesFailed.Inc()
	a.recycleRef(ref)
	a.releaseRC()
	a.pktPool.Put(down)
	a.pktPool.Put(up)
	if cmd.Op == cluster.OpRead || cmd.RetireMark {
		a.cmdPool.Put(cmd)
	} else {
		cmd.RetireMark = true
	}
	a.finishPage(req, metrics.Breakdown{})
}

// failFlushedWrite records the data loss of a buffered write whose
// flush failed: the acknowledged data never reached flash, so its
// mapping (if still current) is severed and the LPN joins the FTL's
// lost set.
func (a *Array) failFlushedWrite(ppn topo.PPN) {
	a.faultCtrs.flushesDropped.Inc()
	// The device never programmed this page, so its block's program
	// cursor is behind the FTL's: close the block before anything
	// appends to it (GC's erase resynchronises the cursors).
	a.ftl.AbortBlock(ppn)
	lpn, ok := a.ftl.LPNOf(ppn)
	if !ok {
		return // mapping already dropped or superseded
	}
	if cur, mapped := a.ftl.Lookup(lpn); !mapped || cur != ppn {
		return
	}
	a.ftl.DropMapping(lpn)
}

// restoreLostRead re-resolves a read whose mapping a fault destroyed:
// the page's pre-existing data is restored out-of-place from the
// host's shadow clone (zero simulated cost, like Prepare) and the read
// retries against the new location, which it reports.
func (a *Array) restoreLostRead(ref *pageRef) (topo.PPN, bool) {
	ppn, err := a.ensureMapped(ref.lpn)
	if err != nil {
		return 0, false
	}
	a.faultCtrs.readsRemapped.Inc()
	if rec := a.decisions; rec != nil {
		// The restoration had exactly one viable placement (the shadow
		// clone's new home); record it so remapping activity shows up in
		// the Restore family's choice distribution.
		g := &a.cfg.Geometry
		c := ppn.ClusterID().Flat(g)
		f := int64(ppn.FIMMID().Flat(g))
		rec.Begin(decision.Restore, c, a.eng.Now())
		rec.Candidate(f, 0, decision.Eligible)
		rec.Commit(f, 0, c)
	}
	return ppn, true
}

// redirectWrite steers a host write off faulted hardware when recovery
// is enabled, keeping the manager's choice otherwise.
func (a *Array) redirectWrite(lpn int64, target topo.FIMMID) topo.FIMMID {
	if !a.recoverFaults || a.health.Placeable(target) {
		return target
	}
	fb, ok := a.ftl.FallbackFIMM(lpn)
	if rec := a.decisions; rec != nil {
		g := &a.cfg.Geometry
		rec.Begin(decision.Restore, target.ClusterID.Flat(g), a.eng.Now())
		rec.Candidate(int64(target.Flat(g)), 0, decision.ExcludedDegraded)
		if ok {
			rec.Candidate(int64(fb.Flat(g)), 1, decision.Eligible)
			rec.Commit(int64(fb.Flat(g)), 1, fb.ClusterID.Flat(g))
		} else {
			// No placeable fallback: the write stays on the faulted
			// target and will fail downstream.
			rec.Commit(int64(target.Flat(g)), 0, target.ClusterID.Flat(g))
		}
	}
	if ok {
		a.faultCtrs.writesRedirected.Inc()
		return fb
	}
	return target // nothing placeable; let the write fail downstream
}

// gcHalted reports whether background GC must stop touching the FIMM:
// its module died or its cluster left the online state.
func (a *Array) gcHalted(id topo.FIMMID) bool {
	if !a.faultsArmed {
		return false
	}
	return a.health.FIMM(id) != topo.FIMMOnline ||
		a.health.Cluster(id.ClusterID) != topo.ClusterOnline
}

// retireUnerasable retires a GC victim whose erase the flash refused.
// A NAND-level refusal is permanent — the block, or its whole die, can
// never be erased again — so the FTL must stop offering it as a victim
// whether or not recovery is on; otherwise the next round would pick
// the same victim and fail the same way, forever. A dead module or an
// unplugged cluster needs nothing here: gcHalted stops GC on it.
func (a *Array) retireUnerasable(victim topo.PPN, err error) {
	switch {
	case errors.Is(err, nand.ErrDeadDie):
		a.ftl.RetireDie(victim.FIMMID(), victim.Pkg(), victim.Die())
	case errors.Is(err, nand.ErrBadBlock):
		a.ftl.RetireBlock(victim)
	}
}

// gcFaultErr tolerates fault-caused errors on GC device operations
// (the round is abandoned; retired blocks are never reused) and keeps
// panicking on everything else.
func (a *Array) gcFaultErr(what string, err error) {
	if a.faultsArmed && isFaultError(err) {
		return
	}
	panic(fmt.Sprintf("array: %s: %v", what, err))
}
