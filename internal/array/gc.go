package array

import (
	"errors"
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/ftl"
	"triplea/internal/topo"
)

// startGC launches a background garbage-collection worker for a FIMM if
// one is not already running. The worker relocates the victim's valid
// pages (device reads and programs that contend with host traffic, as
// real GC does), erases the victim, and repeats while pressure remains.
func (a *Array) startGC(id topo.FIMMID) {
	flat := id.Flat(&a.cfg.Geometry)
	if a.gcActive[flat] {
		return
	}
	a.gcActive[flat] = true
	a.gcStep(id)
}

func (a *Array) gcStep(id topo.FIMMID) {
	flat := id.Flat(&a.cfg.Geometry)
	if a.gcHalted(id) {
		a.gcActive[flat] = false
		return
	}
	if !a.ftl.GCPressure(id) {
		a.gcActive[flat] = false
		return
	}
	// Opportunistic scheduling: while the cluster is serving host
	// traffic, postpone collection to an idle window — unless a unit is
	// about to run dry, in which case reclaim immediately.
	if a.cfg.OpportunisticGC && a.ftl.MinFreeBlocks(id) > 1 &&
		a.clusterBusUtil(id.ClusterID) > 0.5 {
		a.gcDeferrals++
		a.eng.ScheduleEvent(utilWindow, a, uint64(flat))
		return
	}
	plan, ok := a.ftl.PlanGC(id, a.gcVeto)
	if !ok {
		a.gcActive[flat] = false
		return
	}
	a.gcRound[flat] = plan
	a.execGCMoves(plan, 0, func() {
		a.eraseVictim(plan, func() {
			a.gcRound[flat] = nil
			a.gcRounds++
			a.gcStep(id) // keep collecting while pressured
		})
	})
}

// OnEvent implements simx.Handler for the opportunistic-GC deferral
// timer: arg is the flat index of the FIMM whose round was postponed.
func (a *Array) OnEvent(arg uint64) {
	a.gcStep(topo.FIMMFromFlat(a.cfg.Geometry, int(arg)))
}

// execGCMoves relocates plan.Moves[i:] one at a time, then calls done.
func (a *Array) execGCMoves(plan *ftl.GCPlan, i int, done func()) {
	if i >= len(plan.Moves) {
		done()
		return
	}
	move := plan.Moves[i]
	next := func() { a.execGCMoves(plan, i+1, done) }

	ep := a.Endpoint(move.Src.ClusterID())
	readCmd := a.cmdPool.Get()
	readCmd.Op = cluster.OpRead
	readCmd.FIMM, readCmd.Pkg = move.Src.FIMMSlot(), move.Src.Pkg()
	readCmd.SetPageAddr(move.Src.NandAddr(&a.cfg.Geometry))
	readCmd.Background = true
	readCmd.OnComplete = func(c *cluster.Command) {
		if c.Result.Err != nil {
			a.gcFaultErr("GC read", c.Result.Err)
			// The victim page is unreadable; abandon this move.
			a.cmdPool.Put(c)
			next()
			return
		}
		a.cmdPool.Put(c) // background reads retire at completion
		wa, err := a.ftl.AllocateGCMove(move)
		if err != nil {
			// A host write moved the page since planning; skip it.
			next()
			return
		}
		a.markStaleDevice(wa.Old)
		a.backgroundProgram(wa.New, next)
	}
	ep.Submit(readCmd)
}

// gcVeto excludes from victim selection blocks with buffered
// (unflushed) programs and the victim of the FIMM's background round
// in flight, which the emergency path must not erase under it.
func (a *Array) gcVeto(victim topo.PPN) bool {
	if r := a.gcRound[victim.FIMMID().Flat(&a.cfg.Geometry)]; r != nil && r.Victim == victim {
		return true
	}
	b := a.bufs[victim.BlockKey()]
	return b != nil && b.pending > 0
}

// backgroundProgram writes one page at ppn via the endpoint write path.
func (a *Array) backgroundProgram(ppn topo.PPN, done func()) {
	ep := a.Endpoint(ppn.ClusterID())
	cmd := a.cmdPool.Get()
	cmd.Op = cluster.OpWrite
	cmd.FIMM, cmd.Pkg = ppn.FIMMSlot(), ppn.Pkg()
	cmd.SetPageAddr(ppn.NandAddr(&a.cfg.Geometry))
	cmd.Background = true
	// The flush retirement (OnCommandFlushed) recycles the command;
	// OnComplete only chains the GC state machine.
	cmd.OnComplete = func(c *cluster.Command) {
		if c.Result.Err != nil {
			// Fault-caused program failures are tolerated: the flush
			// retirement drops the mapping, and the chain continues.
			a.gcFaultErr("background program", c.Result.Err)
		}
		done()
	}
	a.launchProgram(a.trackFlush(ppn, cmd), funcLauncher(func() { ep.Submit(cmd) }))
}

// eraseVictim erases the plan's victim block and completes the plan.
func (a *Array) eraseVictim(plan *ftl.GCPlan, done func()) {
	cmd := a.cmdPool.Get()
	cmd.Op = cluster.OpErase
	cmd.FIMM, cmd.Pkg = plan.Victim.FIMMSlot(), plan.Victim.Pkg()
	cmd.SetPageAddr(plan.Victim.NandAddr(&a.cfg.Geometry))
	cmd.Background = true
	cmd.OnComplete = func(c *cluster.Command) {
		err := c.Result.Err
		a.cmdPool.Put(c) // erases retire at completion
		if err != nil {
			// A fault-caused erase failure abandons the round.
			a.gcFaultErr("GC erase", err)
			a.retireUnerasable(plan.Victim, err)
			done()
			return
		}
		if err := a.ftl.CompleteGCErase(plan); err != nil {
			panic(fmt.Sprintf("array: GC bookkeeping: %v", err))
		}
		done()
	}
	a.Endpoint(plan.Victim.ClusterID()).Submit(cmd)
}

// runGCNow is the emergency out-of-space path: it reclaims one block
// with zero-time device fixups so an in-admission write can proceed.
// Measured experiments are sized so this never fires; it exists to keep
// pathological configurations (tiny FIMMs, reshaping pile-ups) live.
func (a *Array) runGCNow(id topo.FIMMID) {
	plan, ok := a.ftl.PlanGC(id, a.gcVeto)
	if !ok {
		return
	}
	g := &a.cfg.Geometry
	for _, move := range plan.Moves {
		wa, err := a.ftl.AllocateGCMove(move)
		if errors.Is(err, ftl.ErrNoSpace) {
			// Not even relocation space: the victim cannot be emptied.
			return
		}
		if err != nil {
			continue // host write superseded the page since planning
		}
		a.markStaleDevice(wa.Old)
		if err := a.pkgAt(wa.New).ForcePopulate(wa.New.NandAddr(g)); err != nil {
			panic(fmt.Sprintf("array: emergency GC populate: %v", err))
		}
	}
	if err := a.pkgAt(plan.Victim).ForceErase(plan.Victim.NandAddr(g)); err != nil {
		panic(fmt.Sprintf("array: emergency GC erase: %v", err))
	}
	if err := a.ftl.CompleteGCErase(plan); err != nil {
		panic(fmt.Sprintf("array: emergency GC bookkeeping: %v", err))
	}
	a.gcRounds++
}
