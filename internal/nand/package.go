package nand

import (
	"fmt"

	"triplea/internal/radix"
	"triplea/internal/simx"
)

// Addr identifies one page inside a package.
//
// Block is a die-level block address; per ONFI even/odd block
// addressing, the block address selects the plane, so Plane must equal
// Block % PlanesPerDie (checked on every operation).
type Addr struct {
	Die   int
	Plane int
	Block int // die-level block address (parity selects the plane)
	Page  int // page index within the block
}

func (a Addr) String() string {
	return fmt.Sprintf("d%d/p%d/b%d/pg%d", a.Die, a.Plane, a.Block, a.Page)
}

// PageState tracks the physical condition of a page.
type PageState uint8

const (
	PageErased PageState = iota // never programmed since last erase
	PageValid                   // programmed, holds live data
	PageStale                   // programmed, data superseded (GC fodder)
)

func (s PageState) String() string {
	switch s {
	case PageErased:
		return "erased"
	case PageValid:
		return "valid"
	case PageStale:
		return "stale"
	}
	return "unknown"
}

// blockState is one block's words inside its chunk (see
// Package.blocks): a meta word holding the sequential-program pointer
// in its low half and the erase count in its high half, then the page
// states, 2 bits each, pagesPerWord to a word. A block in no chunk, or
// never touched in its chunk, reads as all zero: erased, never worn,
// programming from page 0.
type blockState []uint64

const (
	pageStateBits = 2
	pageStateMask = 1<<pageStateBits - 1
	pagesPerWord  = 64 / pageStateBits
)

// blockWords reports the words one block takes in its chunk.
func (p *Params) blockWords() int {
	return 1 + (p.PagesPerBlock.Int()+pagesPerWord-1)/pagesPerWord
}

// state reports the page's PageState.
func (bs blockState) state(page int) PageState {
	return PageState(bs[1+page/pagesPerWord] >> (page % pagesPerWord * pageStateBits) & pageStateMask)
}

// setState records the page's PageState.
func (bs blockState) setState(page int, s PageState) {
	w := &bs[1+page/pagesPerWord]
	shift := page % pagesPerWord * pageStateBits
	*w = *w&^(pageStateMask<<shift) | uint64(s)<<shift
}

// nextPage reports the sequential-program pointer.
func (bs blockState) nextPage() int { return int(uint32(bs[0])) }

// setNextPage moves the sequential-program pointer.
func (bs blockState) setNextPage(page int) { bs[0] = bs[0]>>32<<32 | uint64(uint32(page)) }

// eraseCount reports the block's wear.
func (bs blockState) eraseCount() int { return int(bs[0] >> 32) }

// erase resets every page to PageErased and counts the wear.
func (bs blockState) erase() {
	bs[0] = (bs[0]>>32 + 1) << 32
	clear(bs[1:])
}

// Op identifies a NAND command class for statistics.
type Op uint8

const (
	OpRead Op = iota
	OpProgram
	OpErase
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return "unknown"
	}
}

// Stats aggregates activity on one package.
type Stats struct {
	Reads        uint64
	Programs     uint64
	Erases       uint64
	MultiPlane   uint64 // ops that used the multi-plane command
	CacheHits    uint64 // reads served from the cache register
	BusyNS       simx.Time
	MaxEraseWear int
}

// Done receives the completion of an array operation. Pooled
// per-operation states implement it, so completing allocates nothing.
// texe is the device-observed execution time including die queueing.
type Done interface {
	OnNandDone(texe simx.Time, err error)
}

// Package is one bare NAND flash package. All methods must be called
// from simulation context (inside engine events or before Run).
type Package struct {
	eng    *simx.Engine
	params *Params // shared: a FIMM's packages all read its copy
	dies   []die   // this package's part of its FIMM's die slab

	// blocks holds every die's block state in pointer-free chunks,
	// allocated on first touch. A chunk holds plane-local block r of
	// every plane of die d, blockWords per block, at index
	// r*DiesPerPackage+d. A trace's footprint fills the low blocks of
	// each die (its prepopulated pages stripe block 0 of every plane,
	// and its first writes open block 1), so a die that is only read
	// costs one chunk, and the low blocks of all dies share one radix
	// group.
	blocks radix.Table[[]uint64]

	freeOp *opState // recycled operation nodes
	stats  Stats

	// Fault-injection state (fault.go). Nil maps and a zero scale mean
	// a healthy package; the hot paths test exactly that.
	badBlocks  map[int]bool // flat block id: every op fails
	wornBlocks map[int]bool // flat block id: program/erase fail, reads OK
	deadDies   map[int]bool // die index: every op fails
	timeScale  float64      // >0 scales cell times (injected stall)
}

// opState is the pooled per-operation state: it queues for the target
// die (simx.Grantee), rides the cell-time event (simx.Handler), and is
// recycled before the completion callback runs. addrs is borrowed from
// the caller for the duration of the operation.
type opState struct {
	pk     *Package
	op     Op
	addrs  []Addr
	d      Done
	issued simx.Time
	die    *die
	texe   simx.Time
	next   *opState
	ck     simx.PoolCheck
}

// OnGrant implements simx.Grantee: the die is ours; run the state
// machine and start the cell operation.
func (st *opState) OnGrant(arg uint64, _ simx.Time) {
	pk := st.pk
	// State-machine checks run once the die is granted, so queued
	// sequential programs see the state their predecessors committed.
	if err := pk.checkState(st.op, st.addrs); err != nil {
		st.die.res.Release()
		d := st.d
		pk.recycleOp(st)
		d.OnNandDone(0, err)
		return
	}
	st.texe = pk.execTime(st.op, st.addrs, st.die)
	pk.eng.ScheduleEvent(st.texe, st, 0)
}

// OnEvent implements simx.Handler: the cell time elapsed; commit.
func (st *opState) OnEvent(arg uint64) {
	pk := st.pk
	pk.commit(st.op, st.addrs, st.die)
	pk.stats.BusyNS += st.texe
	st.die.res.Release()
	d, issued := st.d, st.issued
	pk.recycleOp(st)
	// Report device-observed execution time including any die
	// queueing: callers use it for laggard accounting.
	d.OnNandDone(pk.eng.Now()-issued, nil)
}

func (pk *Package) newOp(op Op, addrs []Addr, d Done) *opState {
	st := pk.freeOp
	if st != nil {
		pk.freeOp = st.next
		st.ck.Checkout("nand.opState")
		st.next = nil
	} else {
		st = &opState{pk: pk}
		st.ck.Fresh("nand.opState")
	}
	st.op, st.addrs, st.d, st.issued = op, addrs, d, pk.eng.Now()
	st.die = &pk.dies[addrs[0].Die]
	return st
}

func (pk *Package) recycleOp(st *opState) {
	st.addrs, st.d, st.die = nil, nil, nil
	st.ck.Release("nand.opState")
	st.next = pk.freeOp
	pk.freeOp = st
}

type die struct {
	res simx.Resource
	// cacheTag remembers the last page latched into the cache register so
	// repeated reads of the hot page skip tR (cache-mode commands).
	cacheTag int64
}

// NewPackages builds n packages that all read params, in one slab, with
// their dies in a second; invalid params panic (a construction-time
// programming error, not a runtime condition). A FIMM keeps its
// packages this way. The slabs never grow: operations in flight hold
// pointers into them.
func NewPackages(eng *simx.Engine, params *Params, n int) []Package {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	dpp := params.DiesPerPackage
	dies := make([]die, n*dpp)
	for i := range dies {
		dies[i].res.Init(eng, "nand-die", 1)
		dies[i].cacheTag = -1
	}
	pks := make([]Package, n)
	for i := range pks {
		pk := &pks[i]
		pk.eng, pk.params, pk.dies = eng, params, dies[i*dpp:(i+1)*dpp:(i+1)*dpp]
	}
	return pks
}

// NewPackage builds a standalone package with a copy of params of its
// own; invalid params panic.
func NewPackage(eng *simx.Engine, params Params) *Package {
	return &NewPackages(eng, &params, 1)[0]
}

// Params returns the package geometry/timing.
func (pk *Package) Params() Params { return *pk.params }

// Stats returns a snapshot of package activity.
func (pk *Package) Stats() Stats {
	s := pk.stats
	w := pk.params.blockWords()
	for _, c := range pk.blocks.All() {
		for off := 0; off < len(*c); off += w {
			s.MaxEraseWear = max(s.MaxEraseWear, blockState((*c)[off:]).eraseCount())
		}
	}
	return s
}

// DieBusy reports whether the addressed die is currently executing.
func (pk *Package) DieBusy(dieIdx int) bool {
	return pk.dies[dieIdx].res.InUse() > 0
}

// Busy reports whether any die is executing — the package-level
// ready/busy pin (FIMMs wire all packages' R/B# onto one line).
func (pk *Package) Busy() bool {
	for i := range pk.dies {
		if pk.dies[i].res.InUse() > 0 {
			return true
		}
	}
	return false
}

func (pk *Package) checkAddr(a Addr) error {
	p := pk.params
	switch {
	case a.Die < 0 || a.Die >= p.DiesPerPackage:
		return fmt.Errorf("nand: die %d out of range [0,%d)", a.Die, p.DiesPerPackage)
	case a.Plane < 0 || a.Plane >= p.PlanesPerDie:
		return fmt.Errorf("nand: plane %d out of range [0,%d)", a.Plane, p.PlanesPerDie)
	case a.Block < 0 || a.Block >= p.BlocksPerPlane.Int()*p.PlanesPerDie:
		return fmt.Errorf("nand: block %d out of range [0,%d)", a.Block, p.BlocksPerPlane.Int()*p.PlanesPerDie)
	case a.Page < 0 || a.Page >= p.PagesPerBlock.Int():
		return fmt.Errorf("nand: page %d out of range [0,%d)", a.Page, p.PagesPerBlock)
	case a.Plane != a.Block%p.PlanesPerDie:
		return fmt.Errorf("nand: block %d addresses plane %d, not plane %d (even/odd rule)",
			a.Block, a.Block%p.PlanesPerDie, a.Plane)
	}
	return nil
}

func (pk *Package) flatBlock(a Addr) int {
	p := pk.params
	return a.Die*p.PlanesPerDie*p.BlocksPerPlane.Int() + a.Block
}

func (pk *Package) flatPage(a Addr) int64 {
	return int64(pk.flatBlock(a))*pk.params.PagesPerBlock.Int64() + int64(a.Page)
}

// chunkOf locates the addressed block: its chunk's index in blocks,
// the block's first word in the chunk, and the words per block.
func (pk *Package) chunkOf(a Addr) (idx, off, w int) {
	p := pk.params
	w = p.blockWords()
	return a.Block/p.PlanesPerDie*p.DiesPerPackage + a.Die, a.Block % p.PlanesPerDie * w, w
}

// block returns the addressed block's state, allocating its chunk on
// first touch.
func (pk *Package) block(a Addr) blockState {
	idx, off, w := pk.chunkOf(a)
	c := pk.blocks.Slot(idx)
	if *c == nil {
		*c = make([]uint64, pk.params.PlanesPerDie*w)
	}
	return (*c)[off : off+w]
}

// touched returns the addressed block's state, or nil if its chunk was
// never allocated (the block reads as erased and unworn).
func (pk *Package) touched(a Addr) blockState {
	idx, off, w := pk.chunkOf(a)
	if c := pk.blocks.Find(idx); c != nil && *c != nil {
		return (*c)[off : off+w]
	}
	return nil
}

// PageStateAt reports the physical state of a page.
func (pk *Package) PageStateAt(a Addr) PageState {
	if err := pk.checkAddr(a); err != nil {
		panic(err)
	}
	bs := pk.touched(a)
	if bs == nil {
		return PageErased
	}
	return bs.state(a.Page)
}

// EraseCount reports the wear of the addressed block. An address
// outside the package panics, as in PageStateAt.
func (pk *Package) EraseCount(a Addr) int {
	if err := pk.checkAddr(a); err != nil {
		panic(err)
	}
	bs := pk.touched(a)
	if bs == nil {
		return 0
	}
	return bs.eraseCount()
}

// ReadOp latches the addressed pages (all on one die) into the data
// register and calls d.OnNandDone with the array-access time charged.
// Multiple addresses exercise the multi-plane command: they must lie on
// distinct planes of the same die and share the block/page offsets'
// parity rule (even/odd block addressing selects the plane).
//
// The completion fires when the data is in the register; moving it
// off-chip is the channel's job (the FIMM model charges tDMA
// separately).
func (pk *Package) ReadOp(addrs []Addr, d Done) {
	pk.startArrayOp(OpRead, addrs, d)
}

// ProgramOp writes the addressed pages. NAND constraints are enforced:
// the target pages must be erased and must be the block's next
// sequential page.
func (pk *Package) ProgramOp(addrs []Addr, d Done) {
	pk.startArrayOp(OpProgram, addrs, d)
}

// EraseOp erases the addressed blocks (Page field ignored).
func (pk *Package) EraseOp(addrs []Addr, d Done) {
	pk.startArrayOp(OpErase, addrs, d)
}

// ForcePopulate marks a page as programmed without simulating the
// write. It exists so experiment setup can install a workload's
// pre-existing data footprint (terabytes of cold data the traces read)
// without replaying years of writes; it costs no simulated time.
// The sequential-program pointer advances past the page, so dynamic
// allocation never collides with populated pages.
func (pk *Package) ForcePopulate(a Addr) error {
	if err := pk.checkAddr(a); err != nil {
		return err
	}
	bs := pk.block(a)
	if bs.state(a.Page) != PageErased {
		return fmt.Errorf("nand: ForcePopulate of programmed page %v", a)
	}
	bs.setState(a.Page, PageValid)
	if a.Page >= bs.nextPage() {
		bs.setNextPage(a.Page + 1)
	}
	return nil
}

// ForceErase resets a block without simulating the erase. Like
// ForcePopulate it is a bootstrap/emergency fixture (the array uses it
// only on the out-of-space fallback path, never during measured runs);
// it still counts wear.
func (pk *Package) ForceErase(a Addr) error {
	if err := pk.checkAddr(a); err != nil {
		return err
	}
	pk.block(a).erase()
	pk.stats.Erases++
	return nil
}

// MarkStale invalidates a programmed page (an FTL bookkeeping action —
// costs no time on the device). A failing call leaves no state behind.
func (pk *Package) MarkStale(a Addr) error {
	if err := pk.checkAddr(a); err != nil {
		return err
	}
	bs := pk.touched(a)
	if bs == nil || bs.state(a.Page) != PageValid {
		return fmt.Errorf("nand: MarkStale on non-valid page %v", a)
	}
	bs.setState(a.Page, PageStale)
	return nil
}

func (pk *Package) validateMultiPlane(op Op, addrs []Addr) error {
	if len(addrs) == 0 {
		return fmt.Errorf("nand: %v with no addresses", op)
	}
	for _, a := range addrs {
		if err := pk.checkAddr(a); err != nil {
			return err
		}
	}
	first := addrs[0]
	for i, a := range addrs {
		if a.Die != first.Die {
			return fmt.Errorf("nand: multi-plane %v spans dies %d and %d (use die interleaving instead)",
				op, first.Die, a.Die)
		}
		// A multi-plane op covers at most the planes of one die, so a
		// pairwise scan beats allocating a seen-set per validation.
		for _, b := range addrs[:i] {
			if b.Plane == a.Plane {
				return fmt.Errorf("nand: multi-plane %v addresses plane %d twice", op, a.Plane)
			}
		}
		if op != OpErase && a.Page != first.Page {
			return fmt.Errorf("nand: multi-plane %v page offsets differ (%d vs %d)",
				op, first.Page, a.Page)
		}
	}
	return nil
}

func (pk *Package) startArrayOp(op Op, addrs []Addr, d Done) {
	if d == nil {
		panic("nand: nil done receiver")
	}
	if len(addrs) == 0 {
		d.OnNandDone(0, fmt.Errorf("nand: %v with no addresses", op))
		return
	}
	if len(addrs) > 1 {
		if err := pk.validateMultiPlane(op, addrs); err != nil {
			d.OnNandDone(0, err)
			return
		}
		pk.stats.MultiPlane++
	} else if err := pk.checkAddr(addrs[0]); err != nil {
		d.OnNandDone(0, err)
		return
	}

	st := pk.newOp(op, addrs, d)
	st.die.res.AcquireG(st, 0)
}

func (pk *Package) checkState(op Op, addrs []Addr) error {
	if pk.badBlocks != nil || pk.wornBlocks != nil || pk.deadDies != nil {
		if err := pk.checkFaults(op, addrs); err != nil {
			return err
		}
	}
	switch op {
	case OpProgram:
		for _, a := range addrs {
			bs := pk.block(a)
			if bs.state(a.Page) != PageErased {
				return fmt.Errorf("nand: program of non-erased page %v", a)
			}
			if a.Page != bs.nextPage() {
				return fmt.Errorf("nand: out-of-order program %v (next is page %d)", a, bs.nextPage())
			}
		}
	case OpRead:
		for _, a := range addrs {
			bs := pk.touched(a)
			if bs == nil || bs.state(a.Page) == PageErased {
				return fmt.Errorf("nand: read of erased page %v", a)
			}
		}
	case OpErase:
		// No state precondition: erasing an erased or partly programmed
		// block is legal NAND behaviour.
	}
	return nil
}

func (pk *Package) execTime(op Op, addrs []Addr, d *die) simx.Time {
	t := pk.baseExecTime(op, addrs, d)
	if pk.timeScale > 0 {
		t = simx.Time(float64(t) * pk.timeScale)
	}
	return t
}

func (pk *Package) baseExecTime(op Op, addrs []Addr, d *die) simx.Time {
	p := pk.params
	if op == OpRead && p.CacheOK && len(addrs) == 1 && d.cacheTag == pk.flatPage(addrs[0]) {
		pk.stats.CacheHits++
		return p.TCmdOverhead // data already latched in the cache register
	}
	return p.NominalTime(op)
}

func (pk *Package) commit(op Op, addrs []Addr, d *die) {
	switch op {
	case OpRead:
		pk.stats.Reads += uint64(len(addrs))
		if len(addrs) == 1 {
			d.cacheTag = pk.flatPage(addrs[0])
		} else {
			d.cacheTag = -1
		}
	case OpProgram:
		pk.stats.Programs += uint64(len(addrs))
		for _, a := range addrs {
			bs := pk.block(a)
			bs.setState(a.Page, PageValid)
			bs.setNextPage(a.Page + 1)
		}
		d.cacheTag = -1
	case OpErase:
		pk.stats.Erases += uint64(len(addrs))
		for _, a := range addrs {
			pk.block(a).erase()
		}
		d.cacheTag = -1
	}
}
