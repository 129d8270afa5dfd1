package ftl

import (
	"fmt"
	"iter"

	"triplea/internal/radix"
	"triplea/internal/topo"
)

type blockStateKind uint8

const (
	blockFree   blockStateKind = iota // recycled, available for allocation
	blockActive                       // current append target of its unit
	blockFull                         // fully programmed
	blockDense                        // holds prepopulated (static-layout) pages
)

// blockInfo tracks one erase block. Records live in their FIMM's
// chunks (fimmAlloc.blocks); a record is virgin until touched, and a
// virgin block is implicitly free and carried only by its unit's fresh
// pointer, keeping memory proportional to the workload footprint rather
// than the 16 TB array.
type blockInfo struct {
	state   blockStateKind
	touched bool // left the virgin pool: allocated, claimed dense or retired
	retired bool // faulted out: never allocated, claimed or GC'd again
	erase   int32
	valid   int32
	next    int32    // sequential-program pointer
	mask    []uint64 // valid-page bitmap, carved from its chunk's mask words
	// lpns records, for a written (non-dense) block, the LPN each page
	// was programmed with: pages program in order, so slot i is page i.
	// A slot outlives its page's validity; only the mask says whether
	// the page still holds that LPN. Dense blocks leave it empty: their
	// pages invert analytically.
	lpns []int64
}

// lpnFirstCap is the capacity a written block's lpns starts with. A
// sparse trace opens many blocks it programs only a few pages of, so
// lpns grows with the pages programmed: from these slots, doubling, up
// to the whole block. Starting here rather than at one slot skips the
// first rungs of append's ladder.
const lpnFirstCap = 8

// recordLPN appends the LPN of the page just programmed.
func (bi *blockInfo) recordLPN(lpn int64, pagesPerBlock int) {
	if len(bi.lpns) == cap(bi.lpns) {
		grown := make([]int64, len(bi.lpns), min(max(lpnFirstCap, 2*cap(bi.lpns)), pagesPerBlock))
		copy(grown, bi.lpns)
		bi.lpns = grown
	}
	bi.lpns = append(bi.lpns, lpn)
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
	return bi.mask[page/64]&(1<<(page%64)) != 0
}

// recChunkBlocks is how many consecutive plane-local blocks of one
// unit a chunk of records holds. A trace's footprint touches the low
// blocks of each unit: its prepopulated pages fill block 0 and its
// first writes open block 1. Two hold exactly that, so such a unit
// costs one chunk.
const recChunkBlocks = 2

// recChunk holds the records of recChunkBlocks blocks of one unit.
type recChunk [recChunkBlocks]blockInfo

// newRecChunk allocates a chunk of virgin records with their masks.
func newRecChunk(pagesPerBlock int) *recChunk {
	c := new(recChunk)
	w := (pagesPerBlock + 63) / 64
	masks := make([]uint64, recChunkBlocks*w)
	for i := range c {
		c[i].mask = masks[i*w : (i+1)*w : (i+1)*w]
	}
	return c
}

// unitAlloc manages the blocks of one parallel unit (package, die,
// plane). Block indices here are plane-local; the unit's block records
// live in its FIMM's chunks.
type unitAlloc struct {
	freeList     []int // recycled free blocks
	nextFresh    int   // lowest never-touched plane-local block
	aheadTouched int   // touched blocks at indices >= nextFresh
	allocated    int   // blocks in active/full/dense state
	active       int   // plane-local index of the active block, or -1
	retired      bool  // whole unit faulted out (dead die or dead FIMM)
}

// freeBlocks reports how many blocks could still become allocation
// targets: recycled free blocks plus untouched virgin blocks.
func (u *unitAlloc) freeBlocks(blocksPerPlane int) int {
	return len(u.freeList) + (blocksPerPlane - u.nextFresh) - u.aheadTouched
}

// fimmAlloc is the allocation state of one FIMM.
type fimmAlloc struct {
	units []unitAlloc
	// blocks holds every unit's block records in chunks, allocated on
	// first touch. Chunk row r (plane-local blocks r*recChunkBlocks
	// onwards) of unit u sits at index r*len(units)+u, so the low blocks
	// of all units share one radix group.
	blocks radix.Table[*recChunk]
	rr     int // round-robin pointer across units
	erases uint64
}

func newFIMMAlloc(units int) *fimmAlloc {
	fa := &fimmAlloc{units: make([]unitAlloc, units)}
	for i := range fa.units {
		fa.units[i].active = -1
	}
	return fa
}

// block returns unit's plane-local block b's record, or nil if b is
// virgin.
func (fa *fimmAlloc) block(unit, b int) *blockInfo {
	c := fa.blocks.Find(b/recChunkBlocks*len(fa.units) + unit)
	if c == nil || *c == nil {
		return nil
	}
	if bi := &(*c)[b%recChunkBlocks]; bi.touched {
		return bi
	}
	return nil
}

// touch takes unit's virgin block b out of the virgin pool and returns
// its record, allocating the record's chunk on first touch.
func (fa *fimmAlloc) touch(unit, b, pagesPerBlock int) *blockInfo {
	c := fa.blocks.Slot(b/recChunkBlocks*len(fa.units) + unit)
	if *c == nil {
		*c = newRecChunk(pagesPerBlock)
	}
	bi := &(*c)[b%recChunkBlocks]
	bi.touched = true
	return bi
}

// unitBlocks visits unit's touched blocks in ascending block order.
func (fa *fimmAlloc) unitBlocks(unit int) iter.Seq2[int, *blockInfo] {
	return func(yield func(int, *blockInfo) bool) {
		n := len(fa.units)
		for i := unit; i < fa.blocks.Len(); i += n {
			c := fa.blocks.Find(i)
			if c == nil || *c == nil {
				continue
			}
			for j := range *c {
				if bi := &(*c)[j]; bi.touched && !yield(i/n*recChunkBlocks+j, bi) {
					return
				}
			}
		}
	}
}

// takeFreeBlock claims a block of unit for allocation, preferring a
// virgin block (erase count zero — wear-levelling by construction) and
// falling back to the lowest-erase recycled block.
func (fa *fimmAlloc) takeFreeBlock(g *topo.Geometry, unit int) (int, *blockInfo, bool) {
	u := &fa.units[unit]
	for u.nextFresh < g.Nand.BlocksPerPlane.Int() {
		b := u.nextFresh
		u.nextFresh++
		if fa.block(unit, b) != nil {
			// Includes blocks retired by fault injection: retirement
			// touches a virgin block exactly so this skips it.
			u.aheadTouched--
			continue
		}
		return b, fa.touch(unit, b, g.Nand.PagesPerBlock.Int()), true
	}
	if len(u.freeList) == 0 {
		return 0, nil, false
	}
	best := 0
	for i, b := range u.freeList {
		if fa.block(unit, b).erase < fa.block(unit, u.freeList[best]).erase {
			best = i
		}
	}
	b := u.freeList[best]
	u.freeList = append(u.freeList[:best], u.freeList[best+1:]...)
	return b, fa.block(unit, b), true
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

// unitOf reports the index of ppn's parallel unit.
func unitOf(g *topo.Geometry, ppn topo.PPN) int {
	return unitIndex(g, ppn.Pkg(), ppn.Die(), ppn.Block()%g.Nand.PlanesPerDie)
}

func planeLocalBlock(g *topo.Geometry, ppn topo.PPN) int {
	return ppn.Block() / g.Nand.PlanesPerDie
}

// claimDense reserves ppn's page inside a dense (prepopulated) block.
// It reports false if the block has been consumed by dynamic
// allocation, in which case the caller allocates out-of-place.
func (fa *fimmAlloc) claimDense(f *FTL, ppn topo.PPN) bool {
	g := &f.geom
	unit, b := unitOf(g, ppn), planeLocalBlock(g, ppn)
	bi := fa.block(unit, b)
	if bi == nil {
		bi = fa.touch(unit, b, g.Nand.PagesPerBlock.Int())
		bi.state = blockDense
		u := &fa.units[unit]
		u.allocated++
		if b >= u.nextFresh {
			u.aheadTouched++
		}
	} else if bi.state != blockDense || bi.retired {
		return false
	}
	if bi.isValid(ppn.Page()) {
		panic(fmt.Sprintf("ftl: dense page %v claimed twice", ppn))
	}
	bi.setValid(ppn.Page())
	if int32(ppn.Page()) >= bi.next {
		bi.next = int32(ppn.Page()) + 1
	}
	return true
}

// allocPage hands out the next physical page on this FIMM for lpn,
// rotating across parallel units so consecutive writes land on
// different dies.
func (fa *fimmAlloc) allocPage(f *FTL, id topo.FIMMID, lpn int64) (topo.PPN, error) {
	g := &f.geom
	ppb := g.Nand.PagesPerBlock.Int()
	for attempt := 0; attempt < len(fa.units); attempt++ {
		unit := (fa.rr + attempt) % len(fa.units)
		u := &fa.units[unit]
		if u.retired {
			continue
		}
		if u.active < 0 {
			b, bi, ok := fa.takeFreeBlock(g, unit)
			if !ok {
				continue
			}
			bi.state = blockActive
			bi.next = 0
			u.active = b
			u.allocated++
		}
		bi := fa.block(unit, u.active)
		page := int(bi.next)
		bi.next++
		bi.setValid(page)
		bi.recordLPN(lpn, ppb)
		pkg, die, plane := unitCoords(g, unit)
		block := u.active*g.Nand.PlanesPerDie + plane
		ppn := topo.PackPPN(id.Switch, id.Cluster, id.FIMM, pkg, die, block, page)
		if int(bi.next) >= ppb {
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
	return fa.block(unitOf(&f.geom, ppn), planeLocalBlock(&f.geom, ppn))
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
