package array

import (
	"errors"
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/ftl"
	"triplea/internal/topo"
)

// gcWorker is one FIMM's background garbage collector. It relocates
// the victim's valid pages one at a time (device reads and programs
// that contend with host traffic, as real GC does), erases the victim,
// and repeats while pressure remains. New preallocates one per FIMM;
// the worker is the typed receiver of every step of its rounds.
type gcWorker struct {
	arr    *Array
	id     topo.FIMMID
	active bool
	// plan is the round in flight while inRound, until its erase ends;
	// gcVeto keeps the emergency path off its victim. Each round refills
	// it, reusing its Moves backing array.
	plan    ftl.GCPlan
	inRound bool
	move    int              // index into plan.Moves of the move in flight
	prog    *cluster.Command // relocation program parked at its block's gate
}

// startGC launches the FIMM's background collector if it is not
// already running.
func (a *Array) startGC(id topo.FIMMID) {
	w := &a.gc[id.Flat(&a.cfg.Geometry)]
	if w.active {
		return
	}
	w.active = true
	w.step()
}

// step starts the next round, or stops the worker once the FIMM is
// halted, unpressured or has no victim.
func (w *gcWorker) step() {
	a := w.arr
	if a.gcHalted(w.id) || !a.ftl.GCPressure(w.id) {
		w.active = false
		return
	}
	// Opportunistic scheduling: while the cluster is serving host
	// traffic, postpone collection to an idle window — unless a unit is
	// about to run dry, in which case reclaim immediately.
	if a.cfg.OpportunisticGC && a.ftl.MinFreeBlocks(w.id) > 1 &&
		a.clusterBusUtil(w.id.ClusterID) > 0.5 {
		a.gcDeferrals++
		a.eng.ScheduleEvent(cluster.BusSampleWindow, w, 0)
		return
	}
	if !a.ftl.PlanGCInto(&w.plan, w.id, a.gcVeto) {
		w.active = false
		return
	}
	w.inRound, w.move = true, 0
	w.nextMove()
}

// OnEvent implements simx.Handler: the postponed round retries.
func (w *gcWorker) OnEvent(uint64) { w.step() }

// nextMove reads the source of plan.Moves[move], or erases the victim
// once every move is done.
func (w *gcWorker) nextMove() {
	a := w.arr
	if w.move >= len(w.plan.Moves) {
		victim := w.plan.Victim
		a.Endpoint(victim.ClusterID()).Submit(a.command(cluster.OpErase, victim, w))
		return
	}
	src := w.plan.Moves[w.move].Src
	a.Endpoint(src.ClusterID()).Submit(a.command(cluster.OpRead, src, w))
}

// OnCommandDone implements cluster.DoneH for the round's read, program
// and erase commands. A read or program ends its move, however it went.
func (w *gcWorker) OnCommandDone(c *cluster.Command) {
	a := w.arr
	err := c.Result.Err
	switch c.Op {
	case cluster.OpRead:
		a.cmdPool.Put(c) // background reads retire at completion
		if err != nil {
			// The victim page is unreadable; abandon this move.
			a.gcFaultErr("GC read", err)
			break
		}
		wa, err := a.ftl.AllocateGCMove(w.plan.Moves[w.move])
		if err != nil {
			break // a host write moved the page since planning; skip it
		}
		a.markStaleDevice(wa.Old)
		w.prog = a.command(cluster.OpWrite, wa.New, w)
		a.launchProgram(a.trackFlush(wa.New, w.prog), w)
		return
	case cluster.OpWrite:
		// The flush retirement (OnCommandFlushed) recycles the command.
		// Fault-caused program failures are tolerated: the flush
		// retirement drops the mapping, and the round continues.
		if err != nil {
			a.gcFaultErr("background program", err)
		}
	case cluster.OpErase:
		a.cmdPool.Put(c) // erases retire at completion
		if err != nil {
			// A fault-caused erase failure abandons the round.
			a.gcFaultErr("GC erase", err)
			a.retireUnerasable(w.plan.Victim, err)
		} else if err := a.ftl.CompleteGCErase(&w.plan); err != nil {
			panic(fmt.Sprintf("array: GC bookkeeping: %v", err))
		}
		w.inRound = false
		a.gcRounds++
		w.step() // keep collecting while pressured
		return
	}
	w.move++
	w.nextMove()
}

// launch implements launcher: the block's gate lets the relocation
// program go.
func (w *gcWorker) launch() {
	cmd := w.prog
	w.prog = nil
	w.arr.Endpoint(cmd.FlushPPN.ClusterID()).Submit(cmd)
}

// gcVeto excludes from victim selection blocks with buffered
// (unflushed) programs and the victim of the FIMM's background round
// in flight, which the emergency path must not erase under it.
func (a *Array) gcVeto(victim topo.PPN) bool {
	if w := &a.gc[victim.FIMMID().Flat(&a.cfg.Geometry)]; w.inRound && w.plan.Victim == victim {
		return true
	}
	b := a.bufs[victim.BlockKey()]
	return b != nil && b.pending > 0
}

// runGCNow is the emergency out-of-space path: it reclaims one block
// with zero-time device fixups so an in-admission write can proceed.
// Measured experiments are sized so this never fires; it exists to keep
// pathological configurations (tiny FIMMs, reshaping pile-ups) live.
func (a *Array) runGCNow(id topo.FIMMID) {
	plan := &a.gcNow
	if !a.ftl.PlanGCInto(plan, id, a.gcVeto) {
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
