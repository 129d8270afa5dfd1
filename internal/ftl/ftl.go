// Package ftl implements the array-global flash translation layer that
// Triple-A hoists out of individual SSDs into the autonomic management
// module (paper Section 2.3 and Figure 5): logical→physical address
// translation, out-of-place page allocation, greedy garbage collection
// and wear-aware free-block selection, all at array scope so the
// manager can reshape the physical data layout across clusters and
// FIMMs.
//
// The FTL is pure policy and bookkeeping: it decides *where* pages live
// and which device operations are required, while the array layer
// executes those operations against the simulated hardware and charges
// their time.
package ftl

import (
	"errors"
	"fmt"

	"triplea/internal/decision"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/units"
)

// Layout selects the static logical→physical placement of
// never-yet-written data.
type Layout int

const (
	// LayoutClustered maps contiguous LPN ranges onto successive FIMMs
	// and clusters (a concatenation), so logically hot regions become
	// physically hot clusters — the regime the paper studies.
	LayoutClustered Layout = iota
	// LayoutStriped round-robins consecutive LPNs across all FIMMs,
	// spreading load at page granularity.
	LayoutStriped
)

func (l Layout) String() string {
	switch l {
	case LayoutClustered:
		return "clustered"
	case LayoutStriped:
		return "striped"
	default:
		return "unknown"
	}
}

// ErrNoSpace reports that a FIMM has no free block to allocate from;
// the caller must garbage-collect first.
var ErrNoSpace = errors.New("ftl: no free blocks on target FIMM")

// WriteKind classifies why a physical write happens, for wear
// accounting (Section 6.5 charges migration-induced writes separately).
type WriteKind int

const (
	WriteHost      WriteKind = iota // a host write
	WriteGC                         // garbage-collection relocation
	WriteMigration                  // autonomic migration / reshaping
)

func (k WriteKind) String() string {
	switch k {
	case WriteHost:
		return "host"
	case WriteGC:
		return "gc"
	case WriteMigration:
		return "migration"
	default:
		return "unknown"
	}
}

// WriteAlloc describes the device work for one page write: program New,
// and mark Old stale if the LPN was previously mapped.
type WriteAlloc struct {
	LPN    int64
	New    topo.PPN
	Old    topo.PPN
	HasOld bool
}

// Stats aggregates FTL activity.
type Stats struct {
	HostWrites      uint64
	GCWrites        uint64
	MigrationWrites uint64
	Prepopulated    uint64
	GCErases        uint64
	GCPlans         uint64
}

// TotalWrites reports all physical page programs the FTL has allocated.
func (s Stats) TotalWrites() uint64 { return s.HostWrites + s.GCWrites + s.MigrationWrites }

// WriteAmplification reports total physical writes per host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.TotalWrites()) / float64(s.HostWrites)
}

// FTL is the array-global translation layer. It is not safe for
// concurrent use; the discrete-event simulation is single-threaded.
type FTL struct {
	geom        topo.Geometry
	layout      Layout
	gcThreshold units.Blocks // free blocks per unit below which GC is wanted

	// Constants of geom, computed once so the per-page paths never copy
	// the Geometry.
	totalPages   int64
	pagesPerFIMM int64
	unitsPerFIMM int
	ids          []topo.FIMMID // flat FIMM id -> FIMMID

	// pages translates LPN -> current PPN. The LPN space is the whole
	// array (2^32 pages at the default geometry), so it is a radix table
	// whose nodes exist only under the LPN ranges a trace touches
	// (pagetable.go). Each FTL call walks it once and then works on the
	// LPN's slot. The reverse direction lives in the blocks
	// (blockInfo.lpns).
	pages pageTable

	fimms []*fimmAlloc // flat FIMM id -> allocator state, nil until touched

	// Fault state (fault.go). health is nil in unfaulted arrays. LPNs
	// whose physical page a fault destroyed are marked in their pages
	// slot (slotLost), so Prepopulate does not hand back their
	// (unreadable) dense home.
	health *topo.Health

	// Decision flight recorder (nil when recording is off) and its
	// clock source, injected by the array at build time so PlanGCInto can
	// timestamp victim selections without the FTL knowing the engine.
	dec    *decision.Recorder
	decNow func() simx.Time

	stats Stats
	ck    ckState // empty unless built with -tags simcheck
}

// Option configures the FTL.
type Option func(*FTL)

// WithLayout selects the static data layout (default LayoutClustered).
func WithLayout(l Layout) Option { return func(f *FTL) { f.layout = l } }

// WithGCThreshold sets the per-unit free-block low-water mark (default 2).
func WithGCThreshold(n units.Blocks) Option { return func(f *FTL) { f.gcThreshold = n } }

// New builds an FTL for the geometry; an invalid geometry panics.
func New(geom topo.Geometry, opts ...Option) *FTL {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	f := &FTL{
		geom:         geom,
		layout:       LayoutClustered,
		gcThreshold:  2 * units.Block,
		totalPages:   geom.TotalPages().Int64(),
		pagesPerFIMM: geom.PagesPerFIMM().Int64(),
		unitsPerFIMM: geom.ParallelUnitsPerFIMM(),
		ids:          make([]topo.FIMMID, geom.TotalFIMMs()),
		pages:        newPageTable(geom.TotalPages().Int64()),
		fimms:        make([]*fimmAlloc, geom.TotalFIMMs()),
	}
	for flat := range f.ids {
		f.ids[flat] = topo.FIMMFromFlat(geom, flat)
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// SetDecisions attaches the decision flight recorder plus a clock
// source for timestamping GC victim selections. A nil recorder (the
// off backend) keeps PlanGCInto's recording hooks at a single nil check.
func (f *FTL) SetDecisions(d *decision.Recorder, now func() simx.Time) {
	f.dec = d
	f.decNow = now
}

// Geometry returns the array geometry.
func (f *FTL) Geometry() topo.Geometry { return f.geom }

// Layout returns the configured static layout.
func (f *FTL) Layout() Layout { return f.layout }

// Stats returns a snapshot of FTL activity.
func (f *FTL) Stats() Stats { return f.stats }

// MappedPages reports how many LPNs currently have a translation.
func (f *FTL) MappedPages() int { return f.pages.mapped }

// ForEachMapping visits every (LPN, PPN) translation in ascending LPN
// order; returning false stops the walk.
func (f *FTL) ForEachMapping(visit func(lpn int64, ppn topo.PPN) bool) {
	f.pages.walk(visit)
}

func (f *FTL) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= f.totalPages {
		return fmt.Errorf("ftl: LPN %d out of range [0,%d)", lpn, f.totalPages)
	}
	return nil
}

// home computes the static placement of an LPN: its home FIMM and the
// FIMM-local page index used for dense prepopulation.
func (f *FTL) home(lpn int64) (fimmFlat int, fp int64) {
	switch f.layout {
	case LayoutStriped:
		n := int64(len(f.ids))
		return int(lpn % n), lpn / n
	case LayoutClustered:
		return int(lpn / f.pagesPerFIMM), lpn % f.pagesPerFIMM
	}
	panic("ftl: unknown layout")
}

// HomeFIMM reports the LPN's static home FIMM.
func (f *FTL) HomeFIMM(lpn int64) topo.FIMMID {
	if err := f.checkLPN(lpn); err != nil {
		panic(err)
	}
	flat, _ := f.home(lpn)
	return f.ids[flat]
}

// Lookup reports the LPN's current physical page, if mapped. An LPN
// outside the array is not mapped.
func (f *FTL) Lookup(lpn int64) (topo.PPN, bool) {
	return mappedAt(f.pages.find(lpn))
}

// ResidentFIMM reports where the LPN currently lives: its mapped
// location, or its home if never written.
func (f *FTL) ResidentFIMM(lpn int64) topo.FIMMID {
	return f.residentAt(f.pages.find(lpn), lpn)
}

// residentAt is ResidentFIMM for lpn's slot s (nil if it has none).
func (f *FTL) residentAt(s *uint64, lpn int64) topo.FIMMID {
	if ppn, ok := mappedAt(s); ok {
		return ppn.FIMMID()
	}
	return f.HomeFIMM(lpn)
}

// LPNOf reports the logical page currently stored at ppn, if any.
func (f *FTL) LPNOf(ppn topo.PPN) (int64, bool) {
	bi := f.blockOf(ppn)
	if bi == nil || !bi.isValid(ppn.Page()) {
		return 0, false
	}
	return f.lpnAt(bi, ppn), true
}

// densePPN computes the dense (prepopulated) physical location for a
// FIMM-local page index: consecutive indices stripe across parallel
// units for maximum die-level parallelism.
func (f *FTL) densePPN(fimmFlat int, fp int64) topo.PPN {
	g := &f.geom
	u := f.unitsPerFIMM
	planes := g.Nand.PlanesPerDie
	dies := g.Nand.DiesPerPackage
	unit := int(fp % int64(u))
	rest := fp / int64(u)
	pageInBlock := int(rest % g.Nand.PagesPerBlock.Int64())
	planeLocalBlock := int(rest / g.Nand.PagesPerBlock.Int64())

	pkg := unit / (dies * planes)
	die := (unit / planes) % dies
	plane := unit % planes
	block := planeLocalBlock*planes + plane

	id := f.ids[fimmFlat]
	return topo.PackPPN(id.Switch, id.Cluster, id.FIMM, pkg, die, block, pageInBlock)
}

// denseFP inverts densePPN: the FIMM-local page index of a dense PPN.
func (f *FTL) denseFP(ppn topo.PPN) int64 {
	g := &f.geom
	planes := g.Nand.PlanesPerDie
	dies := g.Nand.DiesPerPackage
	plane := ppn.Block() % planes
	planeLocalBlock := ppn.Block() / planes
	unit := (ppn.Pkg()*dies+ppn.Die())*planes + plane
	rest := int64(planeLocalBlock)*g.Nand.PagesPerBlock.Int64() + int64(ppn.Page())
	return rest*int64(f.unitsPerFIMM) + int64(unit)
}

// lpnFromHome inverts home(): the LPN whose static placement is
// (fimmFlat, fp).
func (f *FTL) lpnFromHome(fimmFlat int, fp int64) int64 {
	switch f.layout {
	case LayoutStriped:
		return fp*int64(len(f.ids)) + int64(fimmFlat)
	case LayoutClustered:
		return int64(fimmFlat)*f.pagesPerFIMM + fp
	}
	panic("ftl: unknown layout")
}

// Prepopulate installs the static mapping for an LPN that the workload
// reads without ever having written (pre-existing data). It reports the
// assigned PPN and whether the caller must force-populate the device
// page (false when the LPN was already mapped).
//
// If the dense home location was consumed by dynamic allocation, the
// page is allocated out-of-place instead, like a write.
func (f *FTL) Prepopulate(lpn int64) (topo.PPN, bool, error) {
	if err := f.checkLPN(lpn); err != nil {
		return 0, false, err
	}
	s := f.pages.slot(lpn)
	if ppn, ok := mappedAt(s); ok {
		return ppn, false, nil
	}
	fimmFlat, fp := f.home(lpn)
	if *s != slotLost && f.placeableFlat(fimmFlat) {
		ppn := f.densePPN(fimmFlat, fp)
		fa := f.fimmAllocFor(fimmFlat)
		if fa.claimDense(f, ppn) {
			f.pages.set(s, ppn)
			f.stats.Prepopulated++
			return ppn, true, nil
		}
	}
	// Dense page unavailable (its block was dynamically allocated, the
	// page was lost to a fault, or the home FIMM is faulted out): fall
	// back to out-of-place allocation, home FIMM first.
	wa, err := f.allocateFallback(s, lpn, fimmFlat)
	if err != nil {
		return 0, false, err
	}
	f.stats.HostWrites-- // not a real host write
	f.stats.Prepopulated++
	return wa.New, true, nil
}

// allocateFallback allocates an out-of-place page for lpn, trying the
// home FIMM first and rotating through the remaining placeable FIMMs in
// flat order — a deterministic spill used when the home location is
// consumed or faulted out. s is lpn's slot.
func (f *FTL) allocateFallback(s *uint64, lpn int64, homeFlat int) (WriteAlloc, error) {
	n := len(f.ids)
	var lastErr error
	// Home first, then an LPN-keyed rotation over the rest so a faulted
	// module's pages spread across the survivors.
	start := homeFlat + 1 + int(lpn%int64(max(n-1, 1)))
	for i := -1; i < n; i++ {
		flat := homeFlat
		if i >= 0 {
			flat = (start + i) % n
		}
		if !f.placeableFlat(flat) {
			continue
		}
		wa, err := f.allocate(s, lpn, f.ids[flat], WriteHost)
		if err == nil {
			return wa, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoSpace
	}
	return WriteAlloc{}, lastErr
}

// AllocateWrite allocates the physical page for a host write. The data
// lands on the LPN's resident FIMM, preserving the current layout
// (which the autonomic manager may have reshaped).
func (f *FTL) AllocateWrite(lpn int64) (WriteAlloc, error) {
	if err := f.checkLPN(lpn); err != nil {
		return WriteAlloc{}, err
	}
	s := f.pages.slot(lpn)
	return f.allocate(s, lpn, f.residentAt(s, lpn), WriteHost)
}

// AllocateWriteAt allocates a host write on an explicit FIMM — the
// redirect primitive data-layout reshaping uses for stalled writes.
func (f *FTL) AllocateWriteAt(lpn int64, target topo.FIMMID) (WriteAlloc, error) {
	if err := f.checkLPN(lpn); err != nil {
		return WriteAlloc{}, err
	}
	return f.allocate(f.pages.slot(lpn), lpn, target, WriteHost)
}

// Relocate allocates a migration write moving the LPN's current data to
// target (autonomic data migration and data-layout reshaping). The
// caller copies the data and programs WriteAlloc.New; the old page is
// unlinked.
func (f *FTL) Relocate(lpn int64, target topo.FIMMID) (WriteAlloc, error) {
	if err := f.checkLPN(lpn); err != nil {
		return WriteAlloc{}, err
	}
	s := f.pages.find(lpn)
	if _, ok := mappedAt(s); !ok {
		return WriteAlloc{}, fmt.Errorf("ftl: relocate of unmapped LPN %d", lpn)
	}
	return f.allocate(s, lpn, target, WriteMigration)
}

// allocate places lpn's next version on target and installs it in the
// LPN's slot s, unlinking the page s held. A fresh mapping also
// resurrects a fault-lost LPN.
func (f *FTL) allocate(s *uint64, lpn int64, target topo.FIMMID, kind WriteKind) (WriteAlloc, error) {
	fa := f.fimmAllocFor(target.Flat(&f.geom))
	ppn, err := fa.allocPage(f, target, lpn)
	if err != nil {
		return WriteAlloc{}, err
	}
	wa := WriteAlloc{LPN: lpn, New: ppn}
	if old, ok := mappedAt(s); ok {
		wa.Old, wa.HasOld = old, true
		f.unlink(lpn, old)
	}
	f.pages.set(s, ppn)
	if simcheckEnabled {
		f.ckMapped(lpn, ppn)
	}
	switch kind {
	case WriteHost:
		f.stats.HostWrites++
	case WriteGC:
		f.stats.GCWrites++
	case WriteMigration:
		f.stats.MigrationWrites++
	}
	return wa, nil
}

// unlink removes the lpn->old edge bookkeeping: the page's valid bit,
// which also retires the LPN its block recorded for it.
func (f *FTL) unlink(lpn int64, old topo.PPN) {
	bi := f.blockOf(old)
	if bi == nil || !bi.isValid(old.Page()) {
		panic(fmt.Sprintf("ftl: unlink of non-valid page %v", old))
	}
	bi.clearValid(old.Page())
	if simcheckEnabled {
		f.ckUnlinked(lpn, old)
	}
}

// fimmAllocFor returns (creating lazily) the allocator for a FIMM.
func (f *FTL) fimmAllocFor(flat int) *fimmAlloc {
	fa := f.fimms[flat]
	if fa == nil {
		fa = newFIMMAlloc(f.unitsPerFIMM)
		f.fimms[flat] = fa
	}
	return fa
}

// Wear reports the number of block erases on one FIMM.
func (f *FTL) Wear(id topo.FIMMID) uint64 {
	fa := f.fimms[id.Flat(&f.geom)]
	if fa == nil {
		return 0
	}
	return fa.erases
}

// TotalErases reports erases across the whole array.
func (f *FTL) TotalErases() uint64 {
	var n uint64
	for _, fa := range f.fimms {
		if fa != nil {
			n += fa.erases
		}
	}
	return n
}
