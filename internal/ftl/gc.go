package ftl

import (
	"fmt"

	"triplea/internal/decision"
	"triplea/internal/topo"
	"triplea/internal/units"
)

// GCMove is one valid page to relocate out of a victim block.
type GCMove struct {
	LPN int64
	Src topo.PPN
}

// GCPlan describes one garbage-collection round on a FIMM: relocate
// every Move, then erase Victim's block. The array layer executes the
// device operations and charges their time; the plan is pure policy.
type GCPlan struct {
	FIMM   topo.FIMMID
	Victim topo.PPN // page 0 of the victim block
	Moves  []GCMove
}

// GCPressure reports whether any parallel unit of the FIMM has fewer
// free blocks than the configured threshold.
func (f *FTL) GCPressure(id topo.FIMMID) bool {
	fa := f.fimms[id.Flat(&f.geom)]
	if fa == nil {
		return false
	}
	for i := range fa.units {
		u := &fa.units[i]
		if u.retired {
			continue
		}
		if units.Blocks(u.freeBlocks(f.geom.Nand.BlocksPerPlane.Int())) < f.gcThreshold {
			return true
		}
	}
	return false
}

// MinFreeBlocks reports the free-block count of the FIMM's most
// pressured parallel unit (the urgency signal for GC scheduling).
func (f *FTL) MinFreeBlocks(id topo.FIMMID) units.Blocks {
	fa := f.fimms[id.Flat(&f.geom)]
	if fa == nil {
		return f.geom.Nand.BlocksPerPlane
	}
	min := f.geom.Nand.BlocksPerPlane
	for i := range fa.units {
		u := &fa.units[i]
		if u.retired {
			continue
		}
		if free := units.Blocks(u.freeBlocks(f.geom.Nand.BlocksPerPlane.Int())); free < min {
			min = free
		}
	}
	return min
}

// PlanGC is PlanGCInto on a fresh plan.
func (f *FTL) PlanGC(id topo.FIMMID, veto func(topo.PPN) bool) (*GCPlan, bool) {
	plan := new(GCPlan)
	if !f.PlanGCInto(plan, id, veto) {
		return nil, false
	}
	return plan, true
}

// PlanGCInto picks a victim block on the FIMM (greedy: fewest valid
// pages in the most pressured unit) and fills plan with it and the
// moves needed, reusing plan's Moves backing array. It reports false,
// leaving plan as it was, when no unit is under pressure or no
// reclaimable block exists. A non-nil veto excludes candidate victim
// blocks (identified by their page-0 PPN) — the array vetoes blocks
// with in-flight buffered writes.
func (f *FTL) PlanGCInto(plan *GCPlan, id topo.FIMMID, veto func(topo.PPN) bool) bool {
	fa := f.fimms[id.Flat(&f.geom)]
	if fa == nil {
		return false
	}
	g := &f.geom

	// Most pressured unit first.
	unitIdx, minFree := -1, int(^uint(0)>>1)
	for i := range fa.units {
		u := &fa.units[i]
		if u.retired {
			continue
		}
		free := u.freeBlocks(g.Nand.BlocksPerPlane.Int())
		if units.Blocks(free) < f.gcThreshold && free < minFree {
			unitIdx, minFree = i, free
		}
	}
	if unitIdx < 0 {
		return false
	}

	// Greedy victim: reclaimable (full or dense) block with fewest
	// valid pages, skipping vetoed blocks. Candidates are scanned in
	// ascending block order, so among equally empty blocks the lowest
	// wins.
	//
	// Candidates are also scored into the decision flight recorder at
	// -valid (fewer valid pages is better). The greedy "cannot beat the
	// running minimum" skip keeps its position BEFORE the veto probe so
	// recording never changes how often the veto hook runs; those
	// skipped blocks are recorded as plain eligible candidates — they
	// cannot outscore the chosen victim, so they add no regret.
	pkg, die, plane := unitCoords(g, unitIdx)
	rec := f.dec
	if rec != nil && f.decNow != nil {
		rec.Begin(decision.GCVictim, id.ClusterID.Flat(g), f.decNow())
	} else {
		rec = nil
	}
	victimBlock, victimValid := -1, int32(^uint32(0)>>1)
	var victim topo.PPN
	for b, bi := range fa.unitBlocks(unitIdx) {
		if bi.state != blockFull && bi.state != blockDense {
			continue
		}
		ppn0 := topo.PackPPN(id.Switch, id.Cluster, id.FIMM, pkg, die, b*g.Nand.PlanesPerDie+plane, 0)
		verdict := decision.Eligible
		switch {
		case bi.retired:
			// Faulted-out block: its pages are unreadable, GC cannot
			// relocate them and the block must never be reused.
			verdict = decision.ExcludedRetired
		case bi.valid >= victimValid:
			// Cannot beat the running minimum: recorded as eligible.
		case veto != nil && veto(ppn0):
			verdict = decision.ExcludedVetoed
		default:
			victimBlock, victimValid, victim = b, bi.valid, ppn0
		}
		if rec != nil {
			rec.Candidate(int64(ppn0), -float64(bi.valid), verdict)
		}
	}
	if victimBlock < 0 {
		rec.Cancel()
		return false
	}
	if rec != nil {
		rec.Commit(int64(victim), -float64(victimValid), id.ClusterID.Flat(g))
	}

	dieBlock := victim.Block()
	plan.FIMM = id
	plan.Victim = victim
	plan.Moves = plan.Moves[:0]
	bi := fa.block(unitIdx, victimBlock)
	for page := 0; page < g.Nand.PagesPerBlock.Int(); page++ {
		if !bi.isValid(page) {
			continue
		}
		src := topo.PackPPN(id.Switch, id.Cluster, id.FIMM, pkg, die, dieBlock, page)
		plan.Moves = append(plan.Moves, GCMove{LPN: f.lpnAt(bi, src), Src: src})
	}
	f.stats.GCPlans++
	return true
}

// AllocateGCMove allocates the destination for one GC move, on the same
// FIMM the victim lives on.
func (f *FTL) AllocateGCMove(m GCMove) (WriteAlloc, error) {
	s := f.pages.find(m.LPN)
	if cur, ok := mappedAt(s); !ok || cur != m.Src {
		// The page moved (e.g. a host write landed) since planning; the
		// move is obsolete.
		return WriteAlloc{}, fmt.Errorf("ftl: GC move of %d is stale", m.LPN)
	}
	return f.allocate(s, m.LPN, m.Src.FIMMID(), WriteGC)
}

// CompleteGCErase finalises a plan after the device erased the victim:
// the block returns to the free pool with its wear incremented.
func (f *FTL) CompleteGCErase(plan *GCPlan) error {
	fa := f.fimms[plan.FIMM.Flat(&f.geom)]
	if fa == nil {
		return fmt.Errorf("ftl: CompleteGCErase on untouched FIMM %v", plan.FIMM)
	}
	g := &f.geom
	unit, b := unitOf(g, plan.Victim), planeLocalBlock(g, plan.Victim)
	u := &fa.units[unit]
	bi := fa.block(unit, b)
	if bi == nil {
		return fmt.Errorf("ftl: victim block %v unknown", plan.Victim)
	}
	if bi.valid != 0 {
		return fmt.Errorf("ftl: victim block %v still has %d valid pages", plan.Victim, bi.valid)
	}
	if bi.state != blockFull && bi.state != blockDense {
		return fmt.Errorf("ftl: victim block %v in state %d not reclaimable", plan.Victim, bi.state)
	}
	bi.state = blockFree
	bi.erase++
	bi.next = 0
	for i := range bi.mask {
		bi.mask[i] = 0
	}
	bi.lpns = bi.lpns[:0]
	u.allocated--
	u.freeList = append(u.freeList, b)
	fa.erases++
	f.stats.GCErases++
	return nil
}
