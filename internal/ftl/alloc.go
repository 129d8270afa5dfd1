package ftl

import (
	"fmt"

	"triplea/internal/topo"
)

type blockStateKind uint8

const (
	blockFree   blockStateKind = iota // recycled, available for allocation
	blockActive                       // current append target of its unit
	blockFull                         // fully programmed
	blockDense                        // holds prepopulated (static-layout) pages
)

// blockInfo tracks one touched erase block. Untouched blocks are
// implicitly virgin-free and carried only by the unit's fresh pointer,
// keeping memory proportional to the workload footprint rather than the
// 16 TB array.
type blockInfo struct {
	state blockStateKind
	erase int
	valid int
	next  int      // sequential-program pointer
	mask  []uint64 // valid-page bitmap
	// lpns records, for a written (non-dense) block, the LPN each page
	// was programmed with: pages program in order, so slot i is page i.
	// It grows as pages program, because sparse workloads open many
	// blocks they barely use. A slot outlives its page's validity; only
	// the mask says whether the page still holds that LPN. Dense blocks
	// leave it empty: their pages invert analytically.
	lpns    []int64
	retired bool // faulted out: never allocated, claimed or GC'd again
}

func (bi *blockInfo) ensureMask(pagesPerBlock int) {
	if bi.mask == nil {
		bi.mask = make([]uint64, (pagesPerBlock+63)/64)
	}
}

func (bi *blockInfo) setValid(page int) {
	bi.mask[page/64] |= 1 << (page % 64)
	bi.valid++
}

func (bi *blockInfo) clearValid(page int) {
	bi.mask[page/64] &^= 1 << (page % 64)
	bi.valid--
}

func (bi *blockInfo) isValid(page int) bool {
	if bi.mask == nil {
		return false
	}
	return bi.mask[page/64]&(1<<(page%64)) != 0
}

// unitAlloc manages the blocks of one parallel unit (package, die,
// plane). Block indices here are plane-local.
type unitAlloc struct {
	// touched holds the state of every touched block, indexed by
	// plane-local block; nil entries are virgin. It is grown only to
	// the highest block touched, so it stays proportional to the
	// footprint (see blockInfo).
	touched      []*blockInfo
	freeList     []int // recycled free blocks
	nextFresh    int   // lowest never-touched plane-local block
	aheadTouched int   // touched blocks at indices >= nextFresh
	allocated    int   // blocks in active/full/dense state
	active       int   // plane-local index of the active block, or -1
	retired      bool  // whole unit faulted out (dead die or dead FIMM)
}

func newUnitAlloc() *unitAlloc {
	return &unitAlloc{active: -1}
}

// block returns plane-local block b's state, or nil if b is virgin.
func (u *unitAlloc) block(b int) *blockInfo {
	if b < len(u.touched) {
		return u.touched[b]
	}
	return nil
}

// touch records the state of a newly touched block b.
func (u *unitAlloc) touch(b int, bi *blockInfo) {
	if b >= len(u.touched) {
		u.touched = append(u.touched, make([]*blockInfo, b+1-len(u.touched))...)
	}
	u.touched[b] = bi
}

// freeBlocks reports how many blocks could still become allocation
// targets: recycled free blocks plus untouched virgin blocks.
func (u *unitAlloc) freeBlocks(blocksPerPlane int) int {
	return len(u.freeList) + (blocksPerPlane - u.nextFresh) - u.aheadTouched
}

// takeFreeBlock claims a block for allocation, preferring a virgin
// block (erase count zero — wear-levelling by construction) and falling
// back to the lowest-erase recycled block.
func (u *unitAlloc) takeFreeBlock(blocksPerPlane int) (int, *blockInfo, bool) {
	for u.nextFresh < blocksPerPlane {
		b := u.nextFresh
		u.nextFresh++
		if u.block(b) != nil {
			// Includes blocks retired by fault injection: retirement gives
			// an untouched block a touched entry exactly so this skips it.
			u.aheadTouched--
			continue
		}
		bi := &blockInfo{}
		u.touch(b, bi)
		return b, bi, true
	}
	if len(u.freeList) == 0 {
		return 0, nil, false
	}
	best := 0
	for i, b := range u.freeList {
		if u.touched[b].erase < u.touched[u.freeList[best]].erase {
			best = i
		}
	}
	b := u.freeList[best]
	u.freeList = append(u.freeList[:best], u.freeList[best+1:]...)
	return b, u.touched[b], true
}

// fimmAlloc is the allocation state of one FIMM.
type fimmAlloc struct {
	units  []*unitAlloc
	rr     int // round-robin pointer across units
	erases uint64
}

func newFIMMAlloc(units int) *fimmAlloc {
	fa := &fimmAlloc{units: make([]*unitAlloc, units)}
	for i := range fa.units {
		fa.units[i] = newUnitAlloc()
	}
	return fa
}

// unitIndex maps a PPN's (pkg, die, plane) to its unit slot.
func unitIndex(g *topo.Geometry, pkg, die, plane int) int {
	return (pkg*g.Nand.DiesPerPackage+die)*g.Nand.PlanesPerDie + plane
}

// unitCoords inverts unitIndex.
func unitCoords(g *topo.Geometry, unit int) (pkg, die, plane int) {
	planes := g.Nand.PlanesPerDie
	dies := g.Nand.DiesPerPackage
	return unit / (dies * planes), (unit / planes) % dies, unit % planes
}

func (fa *fimmAlloc) unitOf(g *topo.Geometry, ppn topo.PPN) *unitAlloc {
	plane := ppn.Block() % g.Nand.PlanesPerDie
	return fa.units[unitIndex(g, ppn.Pkg(), ppn.Die(), plane)]
}

func planeLocalBlock(g *topo.Geometry, ppn topo.PPN) int {
	return ppn.Block() / g.Nand.PlanesPerDie
}

// claimDense reserves ppn's page inside a dense (prepopulated) block.
// It reports false if the block has been consumed by dynamic
// allocation, in which case the caller allocates out-of-place.
func (fa *fimmAlloc) claimDense(f *FTL, ppn topo.PPN) bool {
	g := &f.geom
	u := fa.unitOf(g, ppn)
	b := planeLocalBlock(g, ppn)
	bi := u.block(b)
	if bi == nil {
		bi = &blockInfo{state: blockDense}
		u.touch(b, bi)
		u.allocated++
		if b >= u.nextFresh {
			u.aheadTouched++
		}
	} else if bi.state != blockDense || bi.retired {
		return false
	}
	bi.ensureMask(g.Nand.PagesPerBlock.Int())
	if bi.isValid(ppn.Page()) {
		panic(fmt.Sprintf("ftl: dense page %v claimed twice", ppn))
	}
	bi.setValid(ppn.Page())
	if ppn.Page() >= bi.next {
		bi.next = ppn.Page() + 1
	}
	return true
}

// allocPage hands out the next physical page on this FIMM for lpn,
// rotating across parallel units so consecutive writes land on
// different dies.
func (fa *fimmAlloc) allocPage(f *FTL, id topo.FIMMID, lpn int64) (topo.PPN, error) {
	g := &f.geom
	for attempt := 0; attempt < len(fa.units); attempt++ {
		unit := (fa.rr + attempt) % len(fa.units)
		u := fa.units[unit]
		if u.retired {
			continue
		}
		if u.active < 0 {
			b, bi, ok := u.takeFreeBlock(g.Nand.BlocksPerPlane.Int())
			if !ok {
				continue
			}
			bi.state = blockActive
			bi.next = 0
			bi.ensureMask(g.Nand.PagesPerBlock.Int())
			u.active = b
			u.allocated++
		}
		bi := u.touched[u.active]
		page := bi.next
		bi.next++
		bi.setValid(page)
		bi.lpns = append(bi.lpns, lpn)
		pkg, die, plane := unitCoords(g, unit)
		block := u.active*g.Nand.PlanesPerDie + plane
		ppn := topo.PackPPN(id.Switch, id.Cluster, id.FIMM, pkg, die, block, page)
		if bi.next >= g.Nand.PagesPerBlock.Int() {
			bi.state = blockFull
			u.active = -1
		}
		fa.rr = (unit + 1) % len(fa.units)
		return ppn, nil
	}
	return 0, ErrNoSpace
}

// blockOf returns the state of ppn's erase block, or nil if the block
// was never touched.
func (f *FTL) blockOf(ppn topo.PPN) *blockInfo {
	fa := f.fimms[ppn.FIMMID().Flat(&f.geom)]
	if fa == nil {
		return nil
	}
	return fa.unitOf(&f.geom, ppn).block(planeLocalBlock(&f.geom, ppn))
}

// lpnAt reports the LPN held by ppn, a valid page of block bi: the LPN
// a written block recorded when it programmed the page, or the
// analytic inverse of a dense page's home.
func (f *FTL) lpnAt(bi *blockInfo, ppn topo.PPN) int64 {
	if bi.state == blockDense {
		return f.lpnFromHome(ppn.FIMMID().Flat(&f.geom), f.denseFP(ppn))
	}
	return bi.lpns[ppn.Page()]
}
