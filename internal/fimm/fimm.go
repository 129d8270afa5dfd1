// Package fimm models the Flash Inline Memory Module: eight bare NAND
// packages soldered to a DIMM-like printed circuit board, sharing a
// 16-data-pin channel behind the ONFI 78-pin NV-DDR2 connector (the
// paper's Figure 6). A FIMM carries no microprocessor, no DRAM buffer
// and no firmware — it is a passive memory device whose packages are
// selected by chip-enable and whose ready/busy pins share one wire.
//
// Timing model per operation:
//
//	read:    cell access (nand texe, per-die parallel) → channel transfer
//	program: channel transfer (data in)               → cell program
//	erase:   cell erase only (no data movement)
//
// The channel is a capacity-1 resource; transfers across a FIMM's
// packages serialize on it, exactly like the electrical bus.
package fimm

import (
	"fmt"

	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/units"
)

// Params describes one FIMM.
type Params struct {
	NumPackages int         // NAND packages on the module (paper: 8)
	ChannelPins units.Lanes // data pins of the shared channel (paper: 16)
	ChannelMHz  int         // NV-DDR2 clock (paper: 400)
	ChannelDDR  bool        // double data rate

	Nand nand.Params
}

// DefaultParams returns the paper's FIMM: 8 default packages on a
// 16-pin 400 MHz NV-DDR2 channel — 64 GiB per module.
func DefaultParams() Params {
	return Params{
		NumPackages: 8,
		ChannelPins: 16 * units.Lane,
		ChannelMHz:  400,
		ChannelDDR:  true,
		Nand:        nand.DefaultParams(),
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.NumPackages <= 0:
		return fmt.Errorf("fimm: NumPackages %d must be positive", p.NumPackages)
	case p.ChannelPins != 8*units.Lane && p.ChannelPins != 16*units.Lane:
		return fmt.Errorf("fimm: ChannelPins %d must be 8 or 16", p.ChannelPins)
	case p.ChannelMHz <= 0:
		return fmt.Errorf("fimm: ChannelMHz %d must be positive", p.ChannelMHz)
	}
	return p.Nand.Validate()
}

// ChannelBytesPerSec reports the shared channel's raw bandwidth.
func (p Params) ChannelBytesPerSec() units.BytesPerSec {
	return units.BusBandwidth(p.ChannelPins, p.ChannelMHz, p.ChannelDDR)
}

// PageTransferTime reports the channel time for one page — the tDMA of
// Equations 1–3 evaluated at the FIMM channel.
func (p Params) PageTransferTime() simx.Time {
	return units.TransferTime(p.Nand.PageSizeBytes, p.ChannelBytesPerSec())
}

// Result reports the timing decomposition of one FIMM operation.
type Result struct {
	StorageWait simx.Time // queueing for the target die (storage contention inside the FIMM)
	Texe        simx.Time // cell time (tR / tPROG / tBERS + controller overhead)
	ChannelWait simx.Time // queueing for the shared FIMM channel
	ChannelXfer simx.Time // data movement across the channel
	Err         error
}

// Total reports the operation's total device time.
func (r Result) Total() simx.Time {
	return r.StorageWait + r.Texe + r.ChannelWait + r.ChannelXfer
}

// Stats aggregates FIMM activity.
type Stats struct {
	Reads       uint64
	Programs    uint64
	Erases      uint64
	ChannelBusy simx.Time
}

// Done receives the completion of a FIMM operation. Pooled
// per-operation states implement it, so completing allocates nothing.
type Done interface {
	OnFIMMDone(r Result)
}

// FIMM is one flash inline memory module.
type FIMM struct {
	eng    *simx.Engine
	params Params
	// pageXfer is params.PageTransferTime(), computed once: every read
	// and program needs it, and the call copies Params.
	pageXfer simx.Time
	// packages is one slab, and every package reads params.Nand. It
	// never grows: operations in flight hold pointers into it.
	packages []nand.Package
	channel  simx.Resource
	freeOp   *fop // recycled operation nodes

	// Fault-injection state (fault.go): dead rejects new operations;
	// channelScale > 0 stretches channel transfers (degraded lanes).
	dead         bool
	channelScale float64

	stats Stats
}

// fop is the pooled per-operation state: it receives the cell
// completion (nand.Done), queues for the shared channel (simx.Grantee),
// and rides the transfer event (simx.Handler). The op field selects the
// branch: reads run cell → channel, programs run channel → cell, and
// erases run the cell operation alone.
type fop struct {
	f     *FIMM
	op    nand.Op
	pkg   int
	addrs []nand.Addr
	d     Done
	wait  simx.Time // storage (die-queue) wait
	cell  simx.Time // nominal cell time
	chW   simx.Time // channel-queue wait
	xfer  simx.Time // channel transfer time
	next  *fop
	ck    simx.PoolCheck
}

// finish recycles the node, then delivers the result.
func (st *fop) finish(r Result) {
	f, d := st.f, st.d
	f.recycleOp(st)
	d.OnFIMMDone(r)
}

// OnNandDone implements nand.Done.
func (st *fop) OnNandDone(texe simx.Time, err error) {
	f := st.f
	switch st.op {
	case nand.OpRead:
		if err != nil {
			st.finish(Result{Err: err})
			return
		}
		// texe from nand includes die queueing; split out the nominal
		// cell time so storage contention is visible separately.
		st.wait, st.cell = splitDeviceTime(texe, f.params.Nand.NominalTime(nand.OpRead))
		f.channel.AcquireG(st, 0)
	case nand.OpProgram:
		if err != nil {
			st.finish(Result{ChannelWait: st.chW, ChannelXfer: st.xfer, Err: err})
			return
		}
		st.wait, st.cell = splitDeviceTime(texe, f.params.Nand.NominalTime(nand.OpProgram))
		f.stats.Programs += uint64(len(st.addrs))
		st.finish(Result{
			StorageWait: st.wait,
			Texe:        st.cell,
			ChannelWait: st.chW,
			ChannelXfer: st.xfer,
		})
	case nand.OpErase:
		if err != nil {
			st.finish(Result{Err: err})
			return
		}
		st.wait, st.cell = splitDeviceTime(texe, f.params.Nand.NominalTime(nand.OpErase))
		f.stats.Erases += uint64(len(st.addrs))
		st.finish(Result{StorageWait: st.wait, Texe: st.cell})
	}
}

// OnGrant implements simx.Grantee: the shared channel is ours.
func (st *fop) OnGrant(arg uint64, waited simx.Time) {
	st.chW = waited
	st.f.eng.ScheduleEvent(st.xfer, st, 0)
}

// OnEvent implements simx.Handler: the channel transfer finished.
func (st *fop) OnEvent(arg uint64) {
	f := st.f
	f.channel.Release()
	switch st.op {
	case nand.OpRead:
		f.stats.Reads += uint64(len(st.addrs))
		st.finish(Result{
			StorageWait: st.wait,
			Texe:        st.cell,
			ChannelWait: st.chW,
			ChannelXfer: st.xfer,
		})
	case nand.OpProgram:
		// Data is in the package's register; program the cells.
		f.packages[st.pkg].ProgramOp(st.addrs, st)
	case nand.OpErase:
		panic("fimm: erase moves no data across the channel")
	}
}

func (f *FIMM) newOp(op nand.Op, pkg int, addrs []nand.Addr, d Done) *fop {
	st := f.freeOp
	if st != nil {
		f.freeOp = st.next
		st.ck.Checkout("fimm.fop")
		st.next = nil
	} else {
		st = &fop{f: f}
		st.ck.Fresh("fimm.fop")
	}
	st.op, st.pkg, st.addrs, st.d = op, pkg, addrs, d
	st.wait, st.cell, st.chW, st.xfer = 0, 0, 0, 0
	return st
}

func (f *FIMM) recycleOp(st *fop) {
	st.addrs, st.d = nil, nil
	st.ck.Release("fimm.fop")
	st.next = f.freeOp
	f.freeOp = st
}

// New builds a FIMM; invalid params panic (construction-time error).
func New(eng *simx.Engine, params Params) *FIMM {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	f := &FIMM{
		eng:      eng,
		params:   params,
		pageXfer: params.PageTransferTime(),
	}
	f.channel.Init(eng, "fimm-channel", 1)
	f.packages = nand.NewPackages(eng, &f.params.Nand, params.NumPackages)
	return f
}

// Params returns the module parameters.
func (f *FIMM) Params() Params { return f.params }

// NumPackages reports the package count.
func (f *FIMM) NumPackages() int { return len(f.packages) }

// Package exposes one NAND package (for the FTL and tests).
func (f *FIMM) Package(i int) *nand.Package { return &f.packages[i] }

// Busy reports the module's single ready/busy wire: asserted while any
// package executes or the channel is moving data.
func (f *FIMM) Busy() bool {
	if f.channel.InUse() > 0 {
		return true
	}
	for i := range f.packages {
		if f.packages[i].Busy() {
			return true
		}
	}
	return false
}

// ChannelQueueLen reports how many transfers wait for the channel.
func (f *FIMM) ChannelQueueLen() int { return f.channel.QueueLen() }

// ChannelBusyNS reports the channel's accumulated busy time, for
// utilisation sampling.
func (f *FIMM) ChannelBusyNS() simx.Time { return f.channel.BusyNS() }

// ChannelUtilizationSince reports channel utilisation over a window.
func (f *FIMM) ChannelUtilizationSince(since simx.Time, busyAtSince simx.Time) float64 {
	return f.channel.UtilizationSince(since, busyAtSince)
}

// Stats returns a snapshot of module activity.
func (f *FIMM) Stats() Stats {
	s := f.stats
	s.ChannelBusy = f.channel.BusyNS()
	return s
}

func (f *FIMM) checkPkg(pkg int) error {
	if pkg < 0 || pkg >= len(f.packages) {
		return fmt.Errorf("fimm: package %d out of range [0,%d)", pkg, len(f.packages))
	}
	return nil
}

// reject completes d with an error, reporting true, when op cannot
// start: the package index is out of range or the module is dead. It
// runs before any pooled state is minted, so rejected ops leak nothing.
func (f *FIMM) reject(op nand.Op, pkg int, d Done) bool {
	if d == nil {
		panic("fimm: nil done receiver")
	}
	if err := f.checkPkg(pkg); err != nil {
		d.OnFIMMDone(Result{Err: err})
		return true
	}
	if f.dead {
		d.OnFIMMDone(Result{Err: fmt.Errorf("fimm: %v: %w", op, ErrDead)})
		return true
	}
	return false
}

// ReadOp performs a cell read on the addressed package then moves the
// pages across the shared channel. d receives the timing split.
func (f *FIMM) ReadOp(pkg int, addrs []nand.Addr, d Done) {
	if f.reject(nand.OpRead, pkg, d) {
		return
	}
	st := f.newOp(nand.OpRead, pkg, addrs, d)
	st.xfer = f.xferTime(len(addrs))
	f.packages[pkg].ReadOp(addrs, st)
}

// ProgramOp moves the pages across the channel into the package's data
// register, then programs the cells.
func (f *FIMM) ProgramOp(pkg int, addrs []nand.Addr, d Done) {
	if f.reject(nand.OpProgram, pkg, d) {
		return
	}
	st := f.newOp(nand.OpProgram, pkg, addrs, d)
	st.xfer = f.xferTime(len(addrs))
	f.channel.AcquireG(st, 0)
}

// EraseOp erases blocks on the addressed package. No data moves, so the
// channel is never touched.
func (f *FIMM) EraseOp(pkg int, addrs []nand.Addr, d Done) {
	if f.reject(nand.OpErase, pkg, d) {
		return
	}
	f.packages[pkg].EraseOp(addrs, f.newOp(nand.OpErase, pkg, addrs, d))
}

// splitDeviceTime decomposes a device-observed time into (queueing,
// nominal cell time). Cache-mode hits finish faster than nominal; then
// the whole observed time is cell time and queueing is zero.
func splitDeviceTime(observed, nominal simx.Time) (wait, cell simx.Time) {
	if observed <= nominal {
		return 0, observed
	}
	return observed - nominal, nominal
}
