package fault

import (
	"errors"
	"fmt"

	"triplea/internal/array"
	"triplea/internal/decision"
	"triplea/internal/simx"
	"triplea/internal/topo"
)

// Options controls how the injector reacts to the faults it delivers.
type Options struct {
	// Recover enables autonomic degraded-mode recovery: lost pages are
	// dropped from the FTL for out-of-place restoration, unplugged
	// clusters evacuate their live data before release, and the FTL
	// allocates around faulted hardware. Off, faults simply break what
	// they hit — the autonomic-off baseline.
	Recover bool
	// EvacConcurrency bounds in-flight evacuation migrations per
	// cluster (default 4) — the repair-bandwidth knob.
	EvacConcurrency int
}

// Recovery records one cluster evacuation: Done-Start is the
// time-to-recover the degraded-array study reports.
type Recovery struct {
	Cluster   topo.ClusterID
	Start     simx.Time
	Done      simx.Time
	Evacuated int // pages moved off the cluster
}

// TTR reports the recovery's duration.
func (r Recovery) TTR() simx.Time { return r.Done - r.Start }

// Stats counts what the injector did.
type Stats struct {
	Injected        int // fault events delivered
	MappingsDropped int // LPNs whose physical page a fault destroyed
	Evacuated       int // pages migrated off degraded clusters
	EvacErrors      int // evacuation migrations that failed
	Recoveries      []Recovery
}

// Injector owns a materialized plan's delivery and recovery for one
// array. Create with Attach before the run starts.
type Injector struct {
	arr    *array.Array
	opt    Options
	events []Event
	stats  Stats
	evacs  map[int]*evac // flat cluster -> in-progress evacuation
	// dec is the array's decision flight recorder (nil when off);
	// evacuation destination choices are recorded through it.
	dec *decision.Recorder
}

// Attach arms the array's fault paths, materializes the plan and
// schedules every event on the array's engine. Call before Run, at
// simulated time zero. A plan that Validate rejects panics here, with
// the error naming the event, before anything is scheduled.
func Attach(a *array.Array, p Plan, opt Options) *Injector {
	if err := p.Validate(a.Config()); err != nil {
		panic(err)
	}
	if opt.EvacConcurrency <= 0 {
		opt.EvacConcurrency = 4
	}
	inj := &Injector{
		arr:    a,
		opt:    opt,
		events: p.Materialize(a.Config().Geometry),
		evacs:  make(map[int]*evac),
		dec:    a.Decisions(),
	}
	a.ArmFaults()
	a.SetFaultRecovery(opt.Recover)
	eng := a.Engine()
	for i, ev := range inj.events {
		eng.AtEvent(ev.At, inj, uint64(i))
	}
	return inj
}

// OnEvent implements simx.Handler: the materialized fault event at
// index arg is due.
func (inj *Injector) OnEvent(arg uint64) {
	inj.apply(inj.events[arg])
}

// Stats reports what has been injected and recovered so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// Events exposes the materialized schedule (callers must not mutate).
func (inj *Injector) Events() []Event { return inj.events }

// apply delivers one fault event to the hardware and, when recovery is
// on, drives the FTL- and migration-side consequences.
func (inj *Injector) apply(ev Event) {
	inj.stats.Injected++
	a := inj.arr
	g := a.Config().Geometry
	ep := a.Endpoint(ev.Cluster)

	switch ev.Kind {
	case KindFIMMStall:
		ep.FIMM(ev.FIMM).SetCellTimeScale(ev.Factor)

	case KindChannelDegrade:
		ep.FIMM(ev.FIMM).SetChannelScale(ev.Factor)

	case KindLinkDegrade:
		down, up := a.EPLinks(ev.Cluster)
		down.SetRateScale(ev.Factor)
		up.SetRateScale(ev.Factor)

	case KindLinkRetrain:
		down, up := a.EPLinks(ev.Cluster)
		down.Retrain(ev.Duration)
		up.Retrain(ev.Duration)

	case KindBlockReadFail:
		addr := ev.Block.NandAddr(&g)
		ep.FIMM(ev.Block.FIMMSlot()).Package(ev.Block.Pkg()).FailBlock(addr)
		if inj.opt.Recover {
			// List before dropping: DropMapping clears the valid bits
			// BlockLPNs reads.
			a.FTL().RetireBlock(ev.Block.BlockKey())
			inj.dropAll(a.FTL().BlockLPNs(ev.Block.BlockKey()))
		}

	case KindBlockWearOut:
		addr := ev.Block.NandAddr(&g)
		ep.FIMM(ev.Block.FIMMSlot()).Package(ev.Block.Pkg()).WearOutBlock(addr)
		if inj.opt.Recover {
			// Data stays readable; just never program or erase it again.
			a.FTL().RetireBlock(ev.Block.BlockKey())
		}

	case KindDieReadFail:
		addr := ev.Block.NandAddr(&g)
		ep.FIMM(ev.Block.FIMMSlot()).Package(ev.Block.Pkg()).FailDie(addr.Die)
		if inj.opt.Recover {
			fid := ev.Block.FIMMID()
			a.FTL().RetireDie(fid, ev.Block.Pkg(), ev.Block.Die())
			inj.dropAll(a.FTL().MappedMatching(func(p topo.PPN) bool {
				return p.FIMMID() == fid && p.Pkg() == ev.Block.Pkg() &&
					p.Die() == ev.Block.Die()
			}))
		}

	case KindFIMMDeath:
		ep.FIMM(ev.FIMM).Kill()
		id := topo.FIMMID{ClusterID: ev.Cluster, FIMM: ev.FIMM}
		a.Health().SetFIMM(id, topo.FIMMDead)
		if inj.opt.Recover {
			a.FTL().SetFIMMDead(id)
			inj.dropAll(a.FTL().MappedOnFIMM(id))
		}

	case KindClusterUnplug:
		if !inj.opt.Recover {
			// No autonomics: the cluster vanishes, its I/O fails.
			a.Health().SetCluster(ev.Cluster, topo.ClusterOffline)
			ep.SetUnplugged(true)
			return
		}
		// Autonomic hot-swap: degrade (no new placements, reads still
		// served), evacuate live data, then release the hardware.
		a.Health().SetCluster(ev.Cluster, topo.ClusterDegraded)
		inj.evacuate(ev.Cluster)

	case KindClusterReplug:
		if e := inj.evacs[ev.Cluster.Flat(&g)]; e != nil {
			// Replugged mid-evacuation: the data is reachable again, so
			// abandon the remaining drain (in-flight moves finish) and
			// don't release the hardware.
			e.canceled = true
			e.queue = nil
			if e.outstanding == 0 {
				e.finish()
			}
		}
		ep.SetUnplugged(false)
		a.Health().SetCluster(ev.Cluster, topo.ClusterOnline)
	}
}

// dropAll removes fault-destroyed mappings; each dropped LPN restores
// out-of-place from its host shadow clone on the next access.
func (inj *Injector) dropAll(lpns []int64) {
	for _, lpn := range lpns {
		if _, ok := inj.arr.FTL().DropMapping(lpn); ok {
			inj.stats.MappingsDropped++
		}
	}
}

// evacuate starts draining a degraded cluster's live data onto the
// remaining placeable FIMMs through the autonomic-migration path.
func (inj *Injector) evacuate(id topo.ClusterID) {
	a := inj.arr
	g := a.Config().Geometry

	// Deterministic destination rotation: placeable FIMMs in flat
	// order, same-switch ones first so evacuation traffic prefers local
	// fabric hops.
	var near, far []topo.FIMMID
	for flat := 0; flat < g.TotalFIMMs(); flat++ {
		fid := topo.FIMMFromFlat(g, flat)
		if fid.ClusterID == id || !a.Health().Placeable(fid) {
			continue
		}
		if fid.Switch == id.Switch {
			near = append(near, fid)
		} else {
			far = append(far, fid)
		}
	}
	targets := append(near, far...)
	if len(targets) == 0 {
		// Nowhere to put the data: behaves like a no-recovery unplug.
		a.Health().SetCluster(id, topo.ClusterOffline)
		a.Endpoint(id).SetUnplugged(true)
		return
	}
	if rec := inj.dec; rec != nil {
		// Record the rotation head's choice with every placeable FIMM as
		// a candidate: same-switch destinations score 1 (preferred local
		// fabric hops), cross-switch ones 0. The rotation then cycles
		// through all of them, so only the first pick is the "decision".
		rec.Begin(decision.Evacuation, id.Flat(&g), a.Engine().Now())
		for _, fid := range targets {
			score := 0.0
			if fid.Switch == id.Switch {
				score = 1.0
			}
			rec.Candidate(int64(fid.Flat(&g)), score, decision.Eligible)
		}
		first := targets[0]
		score := 0.0
		if first.Switch == id.Switch {
			score = 1.0
		}
		rec.Commit(int64(first.Flat(&g)), score, first.ClusterID.Flat(&g))
	}

	inj.stats.Recoveries = append(inj.stats.Recoveries,
		Recovery{Cluster: id, Start: a.Engine().Now()})
	e := &evac{
		inj:     inj,
		id:      id,
		flat:    id.Flat(&g),
		recIdx:  len(inj.stats.Recoveries) - 1,
		targets: targets,
		queue:   a.FTL().MappedOnCluster(id),
	}
	inj.evacs[e.flat] = e
	e.pump()
}

// evac drives one cluster's evacuation: a bounded-concurrency pump over
// the cluster's mapped LPNs, re-scanned until empty because in-flight
// writes and GC can land new pages while the drain runs.
type evac struct {
	inj     *Injector
	id      topo.ClusterID
	flat    int
	recIdx  int
	targets []topo.FIMMID
	next    int // rotation cursor into targets

	queue       []int64
	outstanding int
	evacuated   int
	pumping     bool // guards against re-entrant pumps from sync dones
	canceled    bool // replugged mid-drain: don't release the hardware
}

func (e *evac) pump() {
	if e.pumping {
		return
	}
	e.pumping = true
	for e.outstanding < e.inj.opt.EvacConcurrency && len(e.queue) > 0 {
		lpn := e.queue[0]
		e.queue = e.queue[1:]
		e.startOne(lpn)
	}
	e.pumping = false
	if e.outstanding == 0 && len(e.queue) == 0 {
		e.finish()
	}
}

func (e *evac) startOne(lpn int64) {
	a := e.inj.arr
	ppn, ok := a.FTL().Lookup(lpn)
	if !ok || ppn.ClusterID() != e.id {
		return // dropped or already moved since the scan
	}
	dst := e.targets[e.next%len(e.targets)]
	e.next++
	e.outstanding++
	a.MigratePage(lpn, dst, false, e)
}

// OnMigrated implements array.Migrated: one evacuation move ended.
func (e *evac) OnMigrated(_ int64, err error) {
	e.outstanding--
	switch {
	case err == nil:
		e.inj.stats.Evacuated++
		e.evacuated++
	case errors.Is(err, array.ErrUnmapped):
		// Dropped or overwritten mid-move — nothing left to save.
	default:
		e.inj.stats.EvacErrors++
	}
	e.pump()
}

// finish re-scans for stragglers and, once the cluster is truly empty,
// releases the hardware and closes the recovery record.
func (e *evac) finish() {
	a := e.inj.arr
	if !e.canceled {
		if more := a.FTL().MappedOnCluster(e.id); len(more) > 0 {
			e.queue = more
			e.pump()
			return
		}
	}
	rec := &e.inj.stats.Recoveries[e.recIdx]
	rec.Done = a.Engine().Now()
	rec.Evacuated = e.evacuated
	delete(e.inj.evacs, e.flat)
	if e.canceled {
		return
	}
	a.Endpoint(e.id).SetUnplugged(true)
	a.Health().SetCluster(e.id, topo.ClusterOffline)
}

// String renders an event for logs and plan dumps.
func (ev Event) String() string {
	return fmt.Sprintf("%v %s %v/f%d", ev.At, ev.Kind, ev.Cluster, ev.FIMM)
}
