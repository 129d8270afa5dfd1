// Package un exercises the units analyzer: cross-unit conversions must
// go through named helpers, unit erasure must go through accessors, and
// bare literals must not pose as typed quantities.
package un

import (
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/units"
)

type geometry struct {
	PageSize units.Bytes
	PerBlock units.Pages
	Planes   int
}

func crossUnit(pages units.Pages, size units.Bytes, t simx.Time, ppn topo.PPN) {
	_ = units.Bytes(pages)   // want `conversion of units\.Pages to units\.Bytes crosses units`
	_ = units.Pages(size)    // want `conversion of units\.Bytes to units\.Pages crosses units`
	_ = simx.Time(pages)     // want `conversion of units\.Pages to simx\.Time crosses units`
	_ = units.Bytes(ppn)     // want `conversion of topo\.PPN to units\.Bytes crosses units`
	_ = units.BytesPerSec(t) // want `conversion of simx\.Time to units\.BytesPerSec crosses units`
	_ = units.Blocks(pages)  // want `conversion of units\.Pages to units\.Blocks crosses units`
	//simlint:units audited: page count reinterpreted for the legacy stats row
	_ = units.Bytes(pages)
	_ = units.PagesToBytes(pages, size) // the named helper is the sanctioned path
	_ = units.ScaleByPages(t, pages)
}

func erasure(size units.Bytes, pages units.Pages, lanes units.Lanes, t simx.Time, ppn topo.PPN) {
	_ = int64(size)    // want `conversion of units\.Bytes to int64 erases the unit; use the Int64 accessor`
	_ = int(pages)     // want `conversion of units\.Pages to int erases the unit; use the Int accessor`
	_ = float64(lanes) // want `conversion of units\.Lanes to float64 erases the unit`
	_ = size.Int64()   // the accessor is the sanctioned path
	_ = pages.Int()
	_ = int64(t)    // simx.Time erasure is legal: reports need raw nanoseconds
	_ = uint64(ppn) // PPN address math needs raw bits, not flagged
	//simlint:units audited: stdlib interface wants a plain int64
	_ = int64(size)
}

func literals(g geometry) {
	_ = units.Bytes(4096) // want `bare numeric literal used as units\.Bytes in conversion`
	_ = units.Pages(256)  // want `bare numeric literal used as units\.Pages in conversion`
	_ = units.Bytes(0)    // zero sentinel stays legal
	_ = units.Pages(-1)   // sentinel stays legal
	_ = 4 * units.KiB     // unit-constant arithmetic is the idiom
	_ = 256 * units.Page
	takeSize(512) // want `bare numeric literal used as units\.Bytes in argument`
	takeSize(4 * units.KiB)
	takeSize(0)

	var ps units.Bytes = 2048 // want `bare numeric literal used as units\.Bytes in variable declaration`
	ps = 8192                 // want `bare numeric literal used as units\.Bytes in assignment`
	ps = 0
	ps = 8 * units.KiB
	_ = ps

	_ = geometry{PageSize: 4096, Planes: 2} // want `bare numeric literal used as units\.Bytes in field PageSize`
	_ = geometry{PerBlock: 128}             // want `bare numeric literal used as units\.Pages in field PerBlock`
	_ = geometry{PageSize: 4 * units.KiB, PerBlock: 256 * units.Page, Planes: 2}
	//simlint:units audited constructor: canonical default geometry
	_ = geometry{PageSize: 4096}
}

func takeSize(n units.Bytes) units.Bytes { return n }
