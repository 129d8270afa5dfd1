package ftl

import (
	"triplea/internal/topo"
)

// Fault-injection hooks (see internal/fault and docs/fault-injection.md).
//
// The FTL's role in a fault is pure bookkeeping: sever translations for
// destroyed pages, retire destroyed blocks and dies from allocation and
// GC, and steer future placements away from faulted-out hardware. The
// device-state side (what the simulated flash would report) is handled
// by the nand/fimm/cluster hooks; the recovery side (re-reading shadow
// clones, evacuating live data) by internal/fault via the array.

// SetHealth attaches the array's health registry. A nil registry (the
// default) means every placement check passes — the unfaulted fast
// path.
func (f *FTL) SetHealth(h *topo.Health) { f.health = h }

// placeableFlat reports whether new data may be placed on the FIMM.
func (f *FTL) placeableFlat(flat int) bool {
	if f.health == nil {
		return true
	}
	return f.health.Placeable(f.ids[flat])
}

// FallbackFIMM picks a deterministic placeable FIMM for lpn: its home
// if healthy, else a placeable FIMM chosen by an LPN-keyed rotation so
// a dead module's load spreads across the survivors instead of piling
// onto one neighbour. It reports false when no FIMM is placeable.
func (f *FTL) FallbackFIMM(lpn int64) (topo.FIMMID, bool) {
	if err := f.checkLPN(lpn); err != nil {
		return topo.FIMMID{}, false
	}
	homeFlat, _ := f.home(lpn)
	if f.placeableFlat(homeFlat) {
		return f.ids[homeFlat], true
	}
	n := len(f.ids)
	start := homeFlat + 1 + int(lpn%int64(max(n-1, 1)))
	for i := 0; i < n; i++ {
		flat := (start + i) % n
		if f.placeableFlat(flat) {
			return f.ids[flat], true
		}
	}
	return topo.FIMMID{}, false
}

// DropMapping severs an LPN's translation after its physical page was
// destroyed by a fault. The LPN joins the lost set, so a later read
// re-prepopulates it out-of-place (the workload's pre-existing data is
// recoverable from the host's shadow clone, paper Section 5) and a
// later write simply maps fresh. It reports the PPN that was lost; an
// unmapped or out-of-range LPN reports false.
func (f *FTL) DropMapping(lpn int64) (topo.PPN, bool) {
	s := f.pages.find(lpn)
	ppn, ok := mappedAt(s)
	if !ok {
		return 0, false
	}
	f.unlink(lpn, ppn)
	f.pages.drop(s)
	return ppn, true
}

// LostPages reports how many LPNs currently have no translation because
// a fault destroyed their physical page.
func (f *FTL) LostPages() int { return f.pages.lost }

// MappedMatching lists, in ascending LPN order, every mapped LPN whose
// current physical page satisfies pred. Cold path: fault handling only.
func (f *FTL) MappedMatching(pred func(topo.PPN) bool) []int64 {
	var out []int64
	f.ForEachMapping(func(lpn int64, ppn topo.PPN) bool {
		if pred(ppn) {
			out = append(out, lpn)
		}
		return true
	})
	return out
}

// MappedOnFIMM lists the LPNs currently stored on the FIMM.
func (f *FTL) MappedOnFIMM(id topo.FIMMID) []int64 {
	return f.MappedMatching(func(ppn topo.PPN) bool { return ppn.FIMMID() == id })
}

// MappedOnCluster lists the LPNs currently stored on the cluster.
func (f *FTL) MappedOnCluster(id topo.ClusterID) []int64 {
	return f.MappedMatching(func(ppn topo.PPN) bool { return ppn.FIMMID().ClusterID == id })
}

// SetFIMMDead retires every parallel unit of the FIMM: no future
// allocation, dense claim or GC will touch it. The caller (the fault
// injector) drops the mappings separately.
func (f *FTL) SetFIMMDead(id topo.FIMMID) {
	fa := f.fimmAllocFor(id.Flat(&f.geom))
	for i := range fa.units {
		fa.units[i].retired = true
	}
}

// RetireDie retires the parallel units of one die on a FIMM (a die-level
// read failure).
func (f *FTL) RetireDie(id topo.FIMMID, pkg, die int) {
	fa := f.fimmAllocFor(id.Flat(&f.geom))
	for plane := 0; plane < f.geom.Nand.PlanesPerDie; plane++ {
		fa.units[unitIndex(&f.geom, pkg, die, plane)].retired = true
	}
}

// RetireBlock removes ppn's erase block from allocation and GC forever
// (a grown bad block). Valid-page bookkeeping is left intact; the
// injector drops the affected mappings, which clears the bits.
func (f *FTL) RetireBlock(ppn topo.PPN) {
	fa := f.fimmAllocFor(ppn.FIMMID().Flat(&f.geom))
	g := &f.geom
	unit, b := unitOf(g, ppn), planeLocalBlock(g, ppn)
	u := &fa.units[unit]
	bi := fa.block(unit, b)
	if bi == nil {
		// Virgin block: touch it so takeFreeBlock skips it.
		bi = fa.touch(unit, b, g.Nand.PagesPerBlock.Int())
		if b >= u.nextFresh {
			u.aheadTouched++
		}
	}
	if bi.retired {
		return
	}
	bi.retired = true
	switch bi.state {
	case blockFree:
		for i, fb := range u.freeList {
			if fb == b {
				u.freeList = append(u.freeList[:i], u.freeList[i+1:]...)
				break
			}
		}
	case blockActive:
		// Close it out; allocPage must never append to a bad block.
		bi.state = blockFull
		u.active = -1
	case blockFull, blockDense:
		// PlanGC and claimDense check the retired flag.
	}
}

// AbortBlock closes the erase block of a write whose device program
// failed: the flash never advanced its in-block program cursor, so
// appending later FTL-allocated pages would program out of order. The
// block keeps its valid/stale bookkeeping and stays an ordinary GC
// victim — the eventual erase resynchronises both cursors.
func (f *FTL) AbortBlock(ppn topo.PPN) {
	fa := f.fimmAllocFor(ppn.FIMMID().Flat(&f.geom))
	unit := unitOf(&f.geom, ppn)
	bi := fa.block(unit, planeLocalBlock(&f.geom, ppn))
	if bi == nil || bi.state != blockActive {
		return
	}
	bi.state = blockFull
	fa.units[unit].active = -1
}

// BlockLPNs lists, in ascending page order, the logical pages currently
// stored in ppn's erase block — the blast radius of a block fault.
func (f *FTL) BlockLPNs(ppn topo.PPN) []int64 {
	bi := f.blockOf(ppn)
	if bi == nil {
		return nil
	}
	base := ppn.BlockKey()
	var out []int64
	for page := 0; page < f.geom.Nand.PagesPerBlock.Int(); page++ {
		if bi.isValid(page) {
			out = append(out, f.lpnAt(bi, topo.PPN(uint64(base)|uint64(page))))
		}
	}
	return out
}
